package main

import (
	"testing"

	"netout"
)

// TestHarnessEndToEnd drives every experiment at a tiny scale: the
// experiment functions terminate the process on any error (log.Fatal), so
// completing the run is the assertion. Output goes to the test's stdout.
func TestHarnessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	h := &harness{scale: 1, seed: 1, queries: 60, csvDir: t.TempDir()}
	// The lof experiment is exercised by `go run ./cmd/experiments -run lof`
	// and by the internal walk/eval tests; its SimRank/PPR baselines are too
	// slow for the default test path, so it is omitted here.
	for name, fn := range map[string]func(){
		"table2":   h.table2,
		"table3":   h.table3,
		"table5":   h.table5,
		"fig4":     h.fig4,
		"fig5":     h.fig5,
		"ablation": h.ablation,
	} {
		t.Run(name, func(t *testing.T) { fn() })
	}
	// fig3 last: it builds the full PM index (the expensive step).
	t.Run("fig3", func(t *testing.T) { h.fig3() })
}

// The paper's Baseline is one traversal per candidate. The baseline
// materializer now memoizes visibilities and scores a large, known candidate
// set from one reverse propagation instead (DESIGN.md "Candidate side"), so
// this pins what keeps Figures 3–5 and Table 5 meaning what they meant: on
// one long-lived engine — every set run twice, the tables as warm as they
// get — no anchor-derived query of cmd/experiments reads a single norm from
// the table, and each costs exactly one traversal per candidate: Sr = Sc is
// under the crossover, so the candidates' loads are the reference side's too
// (held). The venue and term sets of Q2/Q3 cover up to 60 % of their small
// types; it is the floor of 1 024 candidates that holds them.
func TestAnchorQueriesStayPerVertex(t *testing.T) {
	if testing.Short() {
		t.Skip("two generated networks; skipped in -short mode")
	}
	for _, scale := range []int{1, 2} {
		h := &harness{scale: scale, seed: 1, queries: 200}
		g, man := h.network()
		var queries []string
		for _, q := range caseStudyQueries(man) {
			queries = append(queries, q.src)
		}
		for _, set := range h.querySets() {
			queries = append(queries, set...)
		}
		eng := netout.NewEngine(g)
		for pass := 0; pass < 2; pass++ {
			for _, src := range queries {
				res, err := eng.Execute(src)
				if err != nil {
					t.Fatal(err)
				}
				if res.Timing.IndexedVectors != 0 || res.Timing.TraversedVectors != int64(res.CandidateCount) {
					t.Fatalf("scale %d pass %d: %d traversed / %d indexed vectors for %d candidates, want one walk each:\n%s",
						scale, pass, res.Timing.TraversedVectors, res.Timing.IndexedVectors, res.CandidateCount, src)
				}
			}
		}
	}
}
