package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json, the one place the workload names and reasons, the
// metric names, units and directions and the end-to-end bounds are written
// down. The harness reads it at start-up (it only runs from the root of the
// repository, where the file is) and takes all of those from it.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef is one metric of BENCHMARK.json. Bound is the share by which a
// run-set median of an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the repository: %w", err)
	}
	var sp spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

func (sp *spec) why(workload string) string {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// unit is the unit BENCHMARK.json gives the metric, "" for a name it does
// not list.
func (sp *spec) unit(metric string) string {
	for _, defs := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			if d.Name == metric {
				return d.Unit
			}
		}
	}
	return ""
}
