package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netout/internal/hin"
	"netout/internal/obs"
)

// An answer depends on the graph and the text alone, not on what ran before it
// on the engine: every strategy, inline and over local ranges, runs one stream
// of texts — a scan of a short path, then a whole-type scan of a path it
// prefixes repeated until it reads its kept numerators, two COMPARED TO sets
// taking turns on the scan's path with the scan after each, the scan run
// progressively, and scans of the short path and of both — and every answer is
// Float64bits-identical to a fresh engine's answer to the same text. The cache
// runs it on a budget every query overflows and on an ample one, at the
// production waist ratio and at 1. Every arm but one baseline runs at a
// crossover this graph's type reaches (lowered), so every strategy scans from
// the store. The stream must reach each branch of the kept state it is there to
// check: the plan lines, the kept numerators under every strategy, and the
// cache's prefix resumes, waist finishes and evictions.
func TestStreamMatchesFreshEngine(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	g := randomHIN(r, 5)
	all := g.VerticesOfType(0)
	var half, setA, setB []hin.VertexID
	for i, v := range all {
		if i%2 == 0 {
			half = append(half, v)
		}
		if r.Intn(5) == 0 {
			setA = append(setA, v)
		}
		if r.Intn(3) == 0 {
			setB = append(setB, v)
		}
	}
	const long, short = "t0.t1.t2.t1.t0", "t0.t1.t2"
	scan := func(clause string) string { return "FIND OUTLIERS FROM t0 JUDGED BY " + clause + ";" }
	compared := func(set []hin.VertexID) string {
		return "FIND OUTLIERS FROM t0 COMPARED TO t0" + quoted(g, set) + " JUDGED BY " + long + ";"
	}
	stream := []string{scan(short)}
	for range 4 { // vertex, walk, walk (keeps N), memo
		stream = append(stream, scan(long))
	}
	for i := range 4 {
		set := setA
		if i%2 == 1 {
			set = setB
		}
		stream = append(stream, compared(set), scan(long))
	}
	// The one progressive run, at a chunk size that takes several snapshots.
	progressive := len(stream)
	stream = append(stream, scan(long))
	for range 3 {
		stream = append(stream, scan(short))
	}
	stream = append(stream, scan(long+" : 1, "+short+" : 2"))

	// lowered sets a materializer's crossover to one known norm.
	lowered := func(m Materializer) Materializer {
		m.(*indexed).lru.minKnown = 1
		return m
	}
	mats := map[string]func(*hin.Graph) Materializer{
		"baseline":         eagerBaseline,
		"baseline/default": NewBaseline,
		"pm":               func(g *hin.Graph) Materializer { return lowered(NewPM(g)) },
		"spm/half":         func(g *hin.Graph) Materializer { return lowered(NewSPMVertices(g, half)) },
		"spm/none":         func(g *hin.Graph) Materializer { return lowered(NewSPMVertices(g, nil)) },
	}
	for _, budget := range []int64{2 << 10, 1 << 20} {
		for _, ratio := range []int{waistRatio, 1} {
			mats[fmt.Sprintf("cached/%dB/waist=%d", budget, ratio)] = func(g *hin.Graph) Materializer {
				m, err := NewCached(g, budget)
				if err != nil {
					t.Fatal(err)
				}
				m.(*indexed).lru.waists.ratio = ratio
				return lowered(m)
			}
		}
	}
	branches := []string{": numer=walk", ": numer=vertex", "refside=set", "refside=vertex (held)", "waist="}
	reached := map[string]bool{}
	for name, newMat := range mats {
		for _, par := range []int{1, 3} {
			mat := newMat(g)
			eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(par))
			for i, src := range stream {
				label := fmt.Sprintf("%s parallelism %d, text %d", name, par, i)
				run := eng.Execute
				if i == progressive {
					run = func(src string) (*Result, error) {
						res, err := eng.ExecuteProgressive(src, ProgressiveOptions{ChunkSize: 3})
						if res != nil {
							res.Trace = new(obs.Trace) // it records no plan lines
						}
						return res, err
					}
				}
				got, err := run(src)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := NewEngine(g, WithMaterializer(newMat(g)), WithQueryParallelism(par)).Execute(src)
				if err != nil {
					t.Fatalf("%s, fresh: %v", label, err)
				}
				if !resultsEqual(got, want) {
					t.Fatalf("%s: the stream's answer is not a fresh engine's; plan %q\ngot  %+v\nwant %+v",
						label, got.Trace.Plan, got.Entries, want.Entries)
				}
				for _, line := range got.Trace.Plan {
					for _, branch := range branches {
						if strings.Contains(line, branch) {
							reached[branch] = true
						}
					}
					if strings.Contains(line, ": numer=memo") {
						reached[mat.Strategy().String()+" numer=memo"] = true
					}
				}
			}
			if cs, ok := CacheStatsOf(mat); ok {
				reached["prefix resume"] = reached["prefix resume"] || cs.PrefixHits > 0
				reached["waist finish"] = reached["waist finish"] || cs.WaistFinishes > 0
				reached["eviction"] = reached["eviction"] || cs.Evictions > 0
			}
		}
	}
	for _, st := range []Strategy{StrategyBaseline, StrategyPM, StrategySPM, StrategyCached} {
		branches = append(branches, st.String()+" numer=memo")
	}
	for _, branch := range append(branches, "prefix resume", "waist finish", "eviction") {
		if !reached[branch] {
			t.Errorf("the stream never reached %q", branch)
		}
	}
}
