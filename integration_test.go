package netout_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"netout"
	"netout/internal/eval"
	"netout/internal/gen"
)

// TestPaperShapesEndToEnd asserts the EXPERIMENTS.md claims as code, at a
// reduced scale so it runs in normal `go test` time: strategy equivalence
// over the Table 4 workloads, Figure 5's index-size monotonicity, the
// Table 3 visibility split, and the Section 8 baseline ordering.
func TestPaperShapesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	cfg := gen.Default()
	cfg.Papers = 1500
	cfg.AuthorsPerCommunity = 80
	cfg.TermsPerCommunity = 60
	g, man, err := netout.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	names, err := netout.RandomVertexNames(g, "author", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string][]string{}
	for _, tpl := range netout.PaperTemplates() {
		sets[tpl.Name] = netout.BuildQuerySet(tpl, names)
	}

	// --- Strategy equivalence (the Figure 3 correctness precondition):
	// Baseline, PM, SPM and Cached agree on every workload query.
	pm := netout.NewPM(g)
	cached, err := netout.NewCached(g, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	for tplName, qs := range sets {
		spm, err := netout.NewSPM(g, qs, netout.SPMConfig{Threshold: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]*netout.Engine{
			"baseline": netout.NewEngine(g),
			"pm":       netout.NewEngine(g, netout.WithMaterializer(pm)),
			"spm":      netout.NewEngine(g, netout.WithMaterializer(spm)),
			"cached":   netout.NewEngine(g, netout.WithMaterializer(cached)),
		}
		for i, src := range qs {
			if i%10 != 0 {
				continue // sample the workload
			}
			base, err := engines["baseline"].Execute(src)
			if err != nil {
				t.Fatalf("%s query %d: %v", tplName, i, err)
			}
			for _, strat := range []string{"pm", "spm", "cached"} {
				res, err := engines[strat].Execute(src)
				if err != nil {
					t.Fatalf("%s/%s query %d: %v", tplName, strat, i, err)
				}
				if len(res.Entries) != len(base.Entries) {
					t.Fatalf("%s/%s query %d: entry count %d vs %d", tplName, strat, i, len(res.Entries), len(base.Entries))
				}
				for k := range base.Entries {
					if res.Entries[k].Vertex != base.Entries[k].Vertex {
						t.Fatalf("%s/%s query %d: rank %d differs", tplName, strat, i, k)
					}
				}
			}
		}
	}

	// --- Figure 5 shape: index size strictly decreases with the threshold.
	q1 := sets["Q1"]
	var sizes []int64
	for _, th := range []float64{0.001, 0.01, 0.1} {
		spm, err := netout.NewSPM(g, q1, netout.SPMConfig{Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, spm.IndexBytes())
	}
	if !(sizes[0] >= sizes[1] && sizes[1] >= sizes[2]) {
		t.Fatalf("index sizes not monotone: %v", sizes)
	}
	if sizes[0] == sizes[2] {
		t.Fatalf("threshold sweep had no effect: %v", sizes)
	}

	// --- Table 3 shape: NetOut's top-5 spans high visibility; PathSim's
	// top-5 is all one-paper authors.
	hubQuery := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 5;`, man.Hub)
	paperT, _ := g.Schema().TypeByName("paper")
	authorT, _ := g.Schema().TypeByName("author")
	paperCount := func(name string) int {
		v, ok := g.VertexByName(authorT, name)
		if !ok {
			return 0
		}
		return g.Degree(v, paperT)
	}
	netRes, err := netout.NewEngine(g).Execute(hubQuery)
	if err != nil {
		t.Fatal(err)
	}
	maxVis := 0
	for _, e := range netRes.Entries {
		if c := paperCount(e.Name); c > maxVis {
			maxVis = c
		}
	}
	if maxVis < 10 {
		t.Fatalf("NetOut top-5 max visibility = %d papers; expected established authors", maxVis)
	}
	psRes, err := netout.NewEngine(g, netout.WithMeasure(netout.MeasurePathSim)).Execute(hubQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range psRes.Entries {
		if c := paperCount(e.Name); c > 2 {
			t.Fatalf("PathSim top-5 contains %s with %d papers; expected low-visibility only", e.Name, c)
		}
	}

	// --- Section 8 shape: NetOut's AUC against the planted outliers is at
	// least as high as every baseline's.
	full := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, man.Hub)
	q, err := netout.ParseQuery(full)
	if err != nil {
		t.Fatal(err)
	}
	eng := netout.NewEngine(g)
	cands, err := eng.EvalSet(q.From)
	if err != nil {
		t.Fatal(err)
	}
	tr := netout.NewTraverser(g)
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	vecs := make([]netout.Vector, len(cands))
	candNames := make([]string, len(cands))
	for i, v := range cands {
		vecs[i], err = tr.NeighborVector(p, v)
		if err != nil {
			t.Fatal(err)
		}
		candNames[i] = g.Name(v)
	}
	positives := map[string]bool{}
	for _, n := range man.PlantedOutliers() {
		positives[n] = true
	}
	rankOf := func(scores []float64, descending bool) []string {
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if descending {
				return scores[idx[a]] > scores[idx[b]]
			}
			return scores[idx[a]] < scores[idx[b]]
		})
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = candNames[j]
		}
		return out
	}
	netAUC, err := eval.ROCAUC(rankOf(netout.ScoreVectors(netout.MeasureNetOut, vecs, vecs), false), positives)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := netout.KNNOutlierScores(vecs, 5)
	if err != nil {
		t.Fatal(err)
	}
	knnAUC, _ := eval.ROCAUC(rankOf(knn, true), positives)
	ppr, err := netout.PPROutlierScores(g, cands, cands, netout.PPROptions{})
	if err != nil {
		t.Fatal(err)
	}
	pprAUC, _ := eval.ROCAUC(rankOf(ppr, false), positives)
	for name, auc := range map[string]float64{"kNN": knnAUC, "PPR": pprAUC} {
		if auc > netAUC+1e-9 {
			t.Fatalf("%s AUC %.3f beats NetOut's %.3f — Section 8 shape violated", name, auc, netAUC)
		}
	}
}

// The allocation gate: a warm whole-type NetOut scan — the query
// BenchmarkQuery/NetOut times, on its graph — scores every candidate from the
// visibility table and one reverse propagation on every strategy, so what it
// allocates is per query, not per candidate: parse, plan, two propagated
// vectors, the numerators, the score buffers, the top-k heap. Walking per
// candidate cost 2 008 allocations; measured now: 58, and the ceiling leaves
// ~20 % headroom. testing.AllocsPerRun pins GOMAXPROCS to 1, so this is the
// sequential executor on any machine.
func TestWarmScanAllocationCeiling(t *testing.T) {
	const ceiling = 82
	cfg := netout.ScaledGenConfig(1)
	cfg.Seed = 1
	g, _, err := netout.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 25;`
	for name, newMat := range map[string]func() (netout.Materializer, error){
		"Baseline": func() (netout.Materializer, error) { return netout.NewBaseline(g), nil },
		"PM":       func() (netout.Materializer, error) { return netout.NewPM(g), nil },
		"SPM": func() (netout.Materializer, error) {
			return netout.NewSPM(g, []string{src}, netout.SPMConfig{Threshold: 1})
		},
		"Cached": func() (netout.Materializer, error) { return netout.NewCached(g, 64<<20) },
	} {
		t.Run(name, func(t *testing.T) {
			mat, err := newMat()
			if err != nil {
				t.Fatal(err)
			}
			eng := netout.NewEngine(g, netout.WithMaterializer(mat))
			run := func() {
				res, err := eng.Execute(src)
				if err != nil || len(res.Entries) != 25 {
					t.Fatalf("scan: err=%v", err)
				}
			}
			run() // cold: fills the table
			res, _ := eng.Execute(src)
			if res.Timing.IndexedVectors != int64(res.CandidateCount) {
				t.Fatalf("warm scan read %d of %d norms from the table", res.Timing.IndexedVectors, res.CandidateCount)
			}
			if n := testing.AllocsPerRun(20, run); n > ceiling {
				t.Fatalf("warm whole-type scan: %.0f allocations per query, ceiling %d", n, ceiling)
			} else {
				t.Logf("warm whole-type scan: %.0f allocations per query (ceiling %d)", n, ceiling)
			}
			// What was measured is the scan from the store: index reads and
			// cache hits also count as indexed vectors and allocate nothing.
			if res, _ = eng.Execute(src); !slices.ContainsFunc(res.Trace.Plan, func(l string) bool { return strings.HasSuffix(l, "numer=memo") }) {
				t.Fatalf("warm scan plan %q, want the kept numerators read", res.Trace.Plan)
			}
		})
	}
}
