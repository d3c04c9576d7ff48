package main

import (
	"fmt"
	"log"
	"time"

	"netout"
)

// ablation studies the design choices DESIGN.md calls out, beyond the
// paper's own figures: the multi-path combination mode, the Cached strategy
// against the paper's three, batch-worker scaling over a shared index, and
// the progressive executor's overhead against exact Equation (1) execution.
func (h *harness) ablation() {
	g, man := h.network()
	header("Ablations — combination mode, Cached strategy, batch workers, progressive overhead")

	// --- Combination modes on a two-feature query.
	twoFeature := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author
JUDGED BY author.paper.venue, author.paper.author : 2.0 TOP 10;`, man.Hub)
	fmt.Println("combination modes (two-feature hub query):")
	var avgRes, ccRes *netout.Result
	for _, c := range []netout.Combination{netout.CombineAverage, netout.CombineConcat} {
		eng := netout.NewEngine(g, netout.WithCombination(c))
		start := time.Now()
		res, err := eng.Execute(twoFeature)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		top := "-"
		if len(res.Entries) > 0 {
			top = fmt.Sprintf("%s (%.3f)", res.Entries[0].Name, res.Entries[0].Score)
		}
		fmt.Printf("  %-10s %10.1f µs   top: %s\n", c, float64(elapsed.Microseconds()), top)
		if c == netout.CombineAverage {
			avgRes = res
		} else {
			ccRes = res
		}
	}
	if shared, jac := netout.OverlapAtK(avgRes, ccRes, 10); true {
		fmt.Printf("  top-10 overlap between modes: %d (Jaccard %.2f)\n\n", shared, jac)
	}

	// --- Cached strategy against the paper's three on the Q1 workload.
	sets := h.querySets()
	q1 := sets["Q1"]
	fmt.Printf("strategies on %d Q1 queries (per-query mean):\n", len(q1))
	pm := netout.NewPM(g)
	spm, err := netout.NewSPM(g, q1, netout.SPMConfig{Threshold: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	cachedMat, err := netout.NewCached(g, 64<<20)
	if err != nil {
		log.Fatal(err)
	}
	strategies := []struct {
		name string
		mat  netout.Materializer
	}{
		{"Baseline", netout.NewBaseline(g)},
		{"PM", pm},
		{"SPM(0.01)", spm},
		{"Cached(64MB)", cachedMat},
	}
	for _, s := range strategies {
		eng := netout.NewEngine(g, netout.WithMaterializer(s.mat))
		total, _, _, err := runSet(eng, q1)
		if err != nil {
			log.Fatal(err)
		}
		extra := ""
		if cs, ok := netout.CacheStatsOf(s.mat); ok {
			extra = "   (" + cs.String() + ")"
		}
		fmt.Printf("  %-14s %10.1f µs/query%s\n",
			s.name, float64(total.Microseconds())/float64(len(q1)), extra)
	}
	fmt.Println("  note: the cache discovers SPM's hot set online — no offline indexing phase.")
	fmt.Println()

	// --- Batch workers over the shared PM index.
	fmt.Printf("batch execution of %d Q1 queries over the shared PM index:\n", len(q1))
	pmEngine := netout.NewEngine(g, netout.WithMaterializer(pm))
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		results := netout.ExecuteBatch(pmEngine, q1, netout.BatchOptions{Workers: workers})
		for _, br := range results {
			if br.Err != nil {
				log.Fatal(br.Err)
			}
		}
		fmt.Printf("  workers=%d %10.1f ms total\n", workers, float64(time.Since(start).Microseconds())/1000)
	}
	fmt.Println()

	// --- Progressive executor overhead vs exact execution: the hub query's
	// small anchor set, a whole-type scan, and the scan under PathSim, whose
	// exact answer is pairwise, timed to its first snapshot.
	hub := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, man.Hub)
	const scan = `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 25;`
	progressive := func(eng *netout.Engine, src string, chunk int, first bool, exact *netout.Result) {
		snaps := 0
		start := time.Now()
		prog, err := eng.ExecuteProgressive(src, netout.ProgressiveOptions{ChunkSize: chunk,
			OnSnapshot: func(netout.ProgressiveSnapshot) bool { snaps++; return !first }})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		match := "top-1 matches"
		if len(prog.Entries) == 0 || len(exact.Entries) == 0 || prog.Entries[0].Vertex != exact.Entries[0].Vertex {
			match = "top-1 differs"
		}
		fmt.Printf("  progressive chunk=%-4d %10.1f µs   %3d snapshots (%s)\n", chunk, float64(elapsed.Microseconds()), snaps, match)
	}
	for _, arm := range []struct {
		name, src string
		measure   netout.Measure
		chunks    []int
		first     bool
	}{
		{"the hub query", hub, netout.MeasureNetOut, []int{8, 32, 128}, false},
		{"a whole-type scan", scan, netout.MeasureNetOut, []int{8, 32, 128}, false},
		{"a whole-type scan under PathSim, to the first snapshot", scan, netout.MeasurePathSim, []int{64}, true},
	} {
		eng := netout.NewEngine(g, netout.WithMeasure(arm.measure))
		start := time.Now()
		exact, err := eng.Execute(arm.src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("progressive vs exact on %s:\n", arm.name)
		fmt.Printf("  exact (Equation 1)     %10.1f µs\n", float64(time.Since(start).Microseconds()))
		for _, chunk := range arm.chunks {
			progressive(eng, arm.src, chunk, arm.first, exact)
		}
	}
	fmt.Println()
}
