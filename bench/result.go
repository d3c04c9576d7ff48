package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// result is what a run writes to <out>/result.json and -compare reads.
type result struct {
	Seed      int64   `json:"seed"`
	Rounds    int     `json:"rounds"`
	CalibRefS float64 `json:"calib_ref_s"`
	// CalibS summarises every calibration reading of the run.
	CalibS    summary                    `json:"calib_s"`
	CalibAll  []float64                  `json:"calib_all"`
	Order     []string                   `json:"order"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	spec *spec // units of the layer metrics

	Why       string                `json:"why"`
	Conns     int                   `json:"conns"`
	Requests  int                   `json:"requests_per_segment"`
	Attempted int                   `json:"attempted"`
	Succeeded int                   `json:"succeeded"`
	Failed    int                   `json:"failed"`
	Failures  []string              `json:"failures,omitempty"`
	EndToEnd  map[string]summary    `json:"end_to_end"`
	Layers    map[string]layerValue `json:"layers"`
	// Segments are the raw per-segment readings the medians were taken over.
	Segments []segmentRow `json:"segments"`
}

// segmentRow is one segment before host adjustment.
type segmentRow struct {
	Round      int     `json:"round"`
	Traced     bool    `json:"traced"`
	SpeedIndex float64 `json:"speed_index"`
	WallS      float64 `json:"wall_s"`
	OK         int     `json:"ok"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	CPUS       float64 `json:"server_cpu_s"`
	AllocKiB   float64 `json:"server_alloc_kib"`
}

func (res *result) failed() int {
	n := 0
	for _, w := range res.Workloads {
		n += w.Failed
	}
	return n
}

func (res *result) write(path string) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// print writes every metric by name with its unit, one table per workload.
func (res *result) print(w io.Writer, sp *spec) {
	fmt.Fprintf(w, "seed %d, %d rounds, calibration median %.4f s (reference %.3f s)\n",
		res.Seed, res.Rounds, res.CalibS.Value, res.CalibRefS)
	for _, name := range res.Order {
		wr := res.Workloads[name]
		fmt.Fprintf(w, "\n== %s — %d requests/segment on %d connection(s); attempted %d, succeeded %d, failed %d\n",
			name, wr.Requests, wr.Conns, wr.Attempted, wr.Succeeded, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "   FAILED %s\n", f)
		}
		for _, d := range sp.EndToEnd {
			if s, ok := wr.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.4f %-5s  q1 %.4f  q3 %.4f  n %d\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
		names := make([]string, 0, len(wr.Layers))
		for n := range wr.Layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "   %-34s %14.4f %s\n", n, wr.Layers[n].Value, wr.Layers[n].Unit)
		}
	}
}

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output: the end-to-end metrics of the one workload
// run with --trace 0, the per-layer metrics with --trace 1.
func (res *result) driverLine(sp *spec, traced bool) ([]byte, error) {
	wr := res.Workloads[res.Order[0]]
	metrics := map[string]layerValue{}
	if traced {
		for _, d := range sp.PerLayer {
			metrics[d.Name] = layerValue{Value: wr.Layers[d.Name].Value, Unit: d.Unit}
		}
	} else {
		for _, d := range sp.EndToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			metrics[d.Name] = layerValue{Value: s.Value, Unit: d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]layerValue `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
}

// span is one line of <out>/spans-<workload>.jsonl. Spans of one request
// share Trace; Parent is the ID of the span that caused this one, 0 for a
// root. Times are microseconds since the harness started.
type span struct {
	Workload string         `json:"workload"`
	Trace    string         `json:"trace"`
	ID       int            `json:"span"`
	Parent   int            `json:"parent"`
	Name     string         `json:"name"`
	StartUs  float64        `json:"start_us"`
	EndUs    float64        `json:"end_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
