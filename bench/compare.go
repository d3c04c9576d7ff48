package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// exactLayers are the layer metrics that are counts of work: on a
// one-connection workload two runs of the same code and seed must agree on
// them exactly, and -compare lists any that do not.
var exactLayers = []string{
	"mat.traversed_vectors_per_query", "plan.decisions_per_query",
	"cache.hit_rate", "cache.prefix_resumes_per_query", "cache.evictions_per_query", "cache.hops_saved_per_query",
}

// missing lists the metric names of BENCHMARK.json that a result does not
// carry: an end-to-end metric absent from any workload (as
// "<workload>/<metric>"), a per-layer metric absent from every workload —
// some layers exist on some workloads only.
func (res *result) missing(sp *spec) []string {
	var out []string
	emitted := map[string]bool{}
	for _, name := range res.Order {
		wr := res.Workloads[name]
		for _, d := range sp.EndToEnd {
			if _, ok := wr.EndToEnd[d.Name]; !ok {
				out = append(out, name+"/"+d.Name)
			}
		}
		for layer := range wr.Layers {
			emitted[layer] = true
		}
	}
	for _, d := range sp.PerLayer {
		if !emitted[d.Name] {
			out = append(out, d.Name)
		}
	}
	return out
}

func readSet(list string) ([]*result, error) {
	var set []*result
	for _, path := range strings.Split(list, ",") {
		res, err := readResult(path)
		if err != nil {
			return nil, err
		}
		set = append(set, res)
	}
	return set, nil
}

// compareCode prints, for every workload × end-to-end metric, the medians of
// the two sets of result files, B's difference as a share of A, the bound
// and a verdict, then the work counts that differ on one-connection
// workloads. It returns 1 if any metric of B is worse than A's beyond its
// bound. A metric better beyond its bound is pointed out but passes: when
// the two sets are the same code, read it as a disagreement all the same.
func compareCode(w io.Writer, sp *spec, listA, listB string) int {
	a, errA := readSet(listA)
	b, errB := readSet(listB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareSets(w, sp, a, b)
}

func compareSets(w io.Writer, sp *spec, a, b []*result) int {
	e2e := func(set []*result, workload, metric string) (float64, bool) {
		var vs []float64
		for _, res := range set {
			if wr := res.Workloads[workload]; wr != nil {
				if s, ok := wr.EndToEnd[metric]; ok {
					vs = append(vs, s.Value)
				}
			}
		}
		return median(vs), len(vs) > 0
	}
	// A -smoke run replays shorter lists than a full run: different work,
	// and no bound applies between the two.
	all := append(append([]*result(nil), a...), b...)
	for _, res := range all {
		for _, name := range a[0].Order {
			if wr := res.Workloads[name]; wr != nil && wr.Requests != a[0].Workloads[name].Requests {
				fmt.Fprintf(w, "%s: %d requests per segment in one run, %d in another: not the same protocol\n", name, a[0].Workloads[name].Requests, wr.Requests)
				return 2
			}
		}
	}
	code := 0
	fmt.Fprintf(w, "A: %d run(s), B: %d run(s); values are medians over each set\n", len(a), len(b))
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %-5s %9s %6s  %s\n", "workload", "metric", "A", "B", "unit", "B vs A", "bound", "verdict")
	for _, name := range a[0].Order {
		for _, d := range sp.EndToEnd {
			va, okA := e2e(a, name, d.Name)
			vb, okB := e2e(b, name, d.Name)
			if !okA || !okB || va == 0 {
				fmt.Fprintf(w, "%-12s %-26s missing on one side\n", name, d.Name)
				code = 1
				continue
			}
			rel := (vb - va) / va
			worse := rel
			if d.Better == higher {
				worse = -rel
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict, code = "beyond-bound", 1
			case worse < -d.Bound:
				verdict = "ok (better beyond bound)"
			}
			fmt.Fprintf(w, "%-12s %-26s %14.4f %14.4f %-5s %+8.2f%% %5.0f%%  %s\n", name, d.Name, va, vb, d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}

	// Work counts must repeat exactly where one connection makes the order
	// of requests, and so the cache's history, the same in every run.
	seeds := map[int64]bool{}
	for _, res := range all {
		seeds[res.Seed] = true
	}
	if len(seeds) > 1 {
		fmt.Fprintln(w, "\nwork counts not compared: the runs have different seeds")
		return code
	}
	differ := 0
	for _, name := range a[0].Order {
		if a[0].Workloads[name].Conns != 1 {
			continue
		}
		for _, metric := range exactLayers {
			values := map[float64]bool{}
			for _, res := range all {
				if wr := res.Workloads[name]; wr != nil {
					if v, ok := wr.Layers[metric]; ok {
						values[v.Value] = true
					}
				}
			}
			if len(values) > 1 {
				differ++
				fmt.Fprintf(w, "\nwork count differs: %s %s takes %d values %v", name, metric, len(values), keys(values))
			}
		}
	}
	if differ == 0 {
		fmt.Fprintln(w, "\nwork counts on one-connection workloads: identical in every run")
	} else {
		fmt.Fprintln(w)
	}
	return code
}

func keys(m map[float64]bool) []float64 {
	var out []float64
	for k := range m {
		out = append(out, k)
	}
	return sorted(out)
}
