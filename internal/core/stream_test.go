package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"netout/internal/hin"
	"netout/internal/obs"
	"netout/internal/xerr"
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
	lowered := func(m *Materializer) *Materializer {
		m.lru.minKnown = 1
		return m
	}
	mats := map[string]func(*hin.Graph) *Materializer{
		"baseline":         eagerBaseline,
		"baseline/default": NewBaseline,
		"pm":               func(g *hin.Graph) *Materializer { return lowered(NewPM(g)) },
		"spm/half":         func(g *hin.Graph) *Materializer { return lowered(NewSPMVertices(g, half)) },
		"spm/none":         func(g *hin.Graph) *Materializer { return lowered(NewSPMVertices(g, nil)) },
	}
	for _, budget := range []int64{2 << 10, 1 << 20} {
		for _, ratio := range []int{waistRatio, 1} {
			mats[fmt.Sprintf("cached/%dB/waist=%d", budget, ratio)] = func(g *hin.Graph) *Materializer {
				m, err := NewCached(g, budget)
				if err != nil {
					t.Fatal(err)
				}
				m.lru.waists.ratio = ratio
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

// streamSeeds is FuzzExecuteStream's seed corpus, (graph, stream, pick) as
// streamRun reads them. TestStreamCorpusReachesEveryBranch runs it and holds
// it to every branch of the kept state in streamBranches.
var streamSeeds = [][3]int64{
	{1, 4, 24},  // NetOut, Baseline, one norm table, inline: an N evicted by a norm table
	{1, 1, 18},  // NetOut, Cached, overflowed, inline: waist tables evicted and rebuilt
	{2, 2, 282}, // NetOut, Cached, 1 MiB, pool: compiled hits and evictions, memo
	{2, 2, 285}, // NetOut concatenated, Cached, 1 MiB, pool
	{3, 3, 194}, // CosSim, Baseline, 1 MiB, remote
	{3, 5, 151}, // PathSim, PM, overflowed, remote
	{1, 2, 208}, // PathSim concatenated, SPM, 1 MiB, remote
	{3, 7, 132}, // NetOut, SPM, 1 MiB, ranges
	{1, 3, 126}, // NetOut, PM, 1 MiB, ranges
	{3, 9, 100}, // PathSim concatenated, Baseline, one norm table, ranges
	{3, 11, 45}, // NetOut concatenated, Cached, one norm table, inline
}

// streamBranches is every branch of the kept state the corpus must reach: the
// plan lines' numerator and reference-side reasons, compiled hits and
// evictions, an N kept on a second sighting and a kept N evicted by an entry
// of another kind, a waist table evicted and rebuilt, a prefix resume and a
// waist finish.
var streamBranches = []string{
	": numer=memo", ": numer=walk", ": numer=vertex",
	"refside=set", "refside=vertex (held)", "refside=vertex (small)", "refside=vertex (measure)", "refside=vertex (concat)",
	"compiled hit", "compiled evicted", "N kept", "kept N evicted by another kind",
	"waist rebuilt", "prefix resume", "waist finish",
}

// An answer depends on the graph and the text alone, whatever ran before it,
// over random streams: each input draws a random graph, a measure and a
// combination, a strategy (Baseline, PM, SPM over half the type, Cached, each
// at a crossover the graph reaches), a store budget (one every query
// overflows, one that holds a single norm table, 1 MiB) and an executor
// (inline, three local ranges, two remote shards, a serve pool), then runs
// about sixteen texts with Zipf repeats — whole-type scans of one or two
// weighted paths, two COMPARED TO sets taking turns on one path, an anchored
// chain. Every answer is a fresh engine's bit for bit and within the oracle's
// bound (bit for bit for one NetOut path); an error carries an xerr code and
// is the fresh engine's too. The seed corpus runs in
// TestStreamCorpusReachesEveryBranch; `make fuzz` adds it here and fuzzes.
func FuzzExecuteStream(f *testing.F) {
	if fz := flag.Lookup("test.fuzz"); fz != nil && fz.Value.String() != "" {
		for _, s := range streamSeeds {
			f.Add(s[0], s[1], uint16(s[2]))
		}
	}
	f.Fuzz(func(t *testing.T, graph, stream int64, pick uint16) {
		streamRun(t, graph, stream, pick, map[string]bool{})
	})
}

// The seed corpus of FuzzExecuteStream passes, and reaches every branch of
// streamBranches.
func TestStreamCorpusReachesEveryBranch(t *testing.T) {
	reached := map[string]bool{}
	for _, s := range streamSeeds {
		t.Run(fmt.Sprint(s), func(t *testing.T) { streamRun(t, s[0], s[1], uint16(s[2]), reached) })
	}
	for _, b := range streamBranches {
		if !reached[b] {
			t.Errorf("the corpus never reached %q", b)
		}
	}
}

// streamText is one text of a stream with what the oracle needs of it.
type streamText struct {
	src         string
	paths       [][]hin.TypeID
	weights     []float64
	cands, refs []hin.VertexID
}

// streamTexts draws a graph's texts from its seed: a 4-hop path A from t0
// and its 2-hop prefix B (whose vectors A's misses resume from), scans of A,
// of B and of both weighted, A COMPARED TO a large set and to a small one, and
// A from the t0 an anchor reaches through t1. The second of the returned
// texts is the COMPARED TO slot: a stream takes its two sets in turn.
func streamTexts(g *hin.Graph, seed int64) (texts []streamText, setB streamText) {
	r := rand.New(rand.NewSource(seed))
	s := g.Schema()
	a := []hin.TypeID{0}
	for len(a) < 5 {
		next := s.AllowedFrom(a[len(a)-1])
		a = append(a, next[r.Intn(len(next))])
	}
	b := a[:3]
	dotted := func(types []hin.TypeID) string {
		names := make([]string, len(types))
		for i, ty := range types {
			names[i] = s.TypeName(ty)
		}
		return strings.Join(names, ".")
	}
	all := g.VerticesOfType(0)
	scan := func(clause string, paths [][]hin.TypeID, weights []float64) streamText {
		return streamText{src: "FIND OUTLIERS FROM t0 JUDGED BY " + clause + ";", paths: paths, weights: weights, cands: all, refs: all}
	}
	compared := func(every int) streamText {
		var set []hin.VertexID
		for _, v := range all {
			if r.Intn(every) == 0 {
				set = append(set, v)
			}
		}
		t := scan(dotted(a), [][]hin.TypeID{a}, []float64{1})
		t.src, t.refs = "FIND OUTLIERS FROM t0 COMPARED TO t0"+quoted(g, set)+" JUDGED BY "+dotted(a)+";", set
		return t
	}
	wa, wb := float64(1+r.Intn(4)), float64(1+r.Intn(4))/2
	texts = []streamText{
		scan(dotted(a), [][]hin.TypeID{a}, []float64{1}),
		compared(2),
		scan(fmt.Sprintf("%s : %g, %s : %g", dotted(a), wa, dotted(b), wb), [][]hin.TypeID{a, b}, []float64{wa, wb}),
		scan(dotted(b), [][]hin.TypeID{b}, []float64{1}),
	}
	setB = compared(8)
	// The anchor is a t0 with a t1 neighbour; its chain is the t0 those reach.
	var anchor hin.VertexID
	var via, chain []hin.VertexID
	for len(via) == 0 {
		anchor = all[r.Intn(len(all))]
		via, _ = g.Neighbors(anchor, 1)
	}
	for _, u := range via {
		nbrs, _ := g.Neighbors(u, 0)
		chain = append(chain, nbrs...)
	}
	slices.Sort(chain)
	chain = slices.Compact(chain)
	texts = append(texts, streamText{src: fmt.Sprintf("FIND OUTLIERS FROM t0{%q}.t1.t0 JUDGED BY %s;", g.Name(anchor), dotted(a)),
		paths: [][]hin.TypeID{a}, weights: []float64{1}, cands: chain, refs: chain})
	return texts, setB
}

// streamOracles caches the oracle's answer per (graph, measure, text).
var streamOracles sync.Map

// streamRun runs one input of FuzzExecuteStream, marking in reached the
// branches of streamBranches it took.
func streamRun(t *testing.T, graph, stream int64, pick uint16, reached map[string]bool) {
	g := randomHIN(rand.New(rand.NewSource(graph)), 5)
	texts, setB := streamTexts(g, graph)
	measure := allMeasures[pick%3]
	combine := []Combination{CombineAverage, CombineConcat}[pick/3%2]
	strategy, executor := int(pick/6%4), int(pick/72%4)
	budget := streamBudgets(g)[pick/24%3]
	newMat := streamMaterializer(g, strategy, budget)
	// newRun is a fresh engine on the executor, its materializer, and its
	// close. A pool runs its queries inline, so that the store's evictions,
	// and the branches the corpus reaches, do not depend on the schedule.
	newRun := func() (func(string) (*Result, error), *Materializer, func()) {
		mat := newMat(g)
		opts := []Option{WithMaterializer(mat), WithMeasure(measure), WithCombination(combine)}
		switch executor {
		case 0, 3:
			opts = append(opts, WithQueryParallelism(1))
		case 1:
			opts = append(opts, WithQueryParallelism(3))
		case 2:
			opts = append(opts, WithRemoteShards(fakeFleetOf(g, 2, newMat)...))
		}
		eng := NewEngine(g, opts...)
		if executor != 3 {
			return eng.Execute, mat, eng.Close
		}
		pool := NewServePool(eng, ServeOptions{Workers: 1})
		return func(src string) (*Result, error) { return pool.Execute(context.Background(), src) }, mat, func() {
			if pool.compiled.hits.Load() > 0 {
				reached["compiled hit"] = true
			}
			pool.Close()
			eng.Close()
		}
	}
	run, mat, done := newRun()
	defer done()
	st := mat.lru
	before := storeKinds(st)
	gone := map[ckey]bool{}
	omegas := map[string][]*big.Float{} // the oracle's Ω per path, cands and refs: texts share them
	wants := map[string]struct {
		res *Result
		err error
	}{}
	for i, text := range streamOrder(texts, setB, stream) {
		label := fmt.Sprintf("graph %d stream %d pick %d (%v %v strategy %d budget %d executor %d), text %d %q",
			graph, stream, pick, measure, combine, strategy, budget, executor, i, text.src)
		got, err := run(text.src)
		// A fresh engine's answer is the text's alone: asked once per text.
		fresh, ok := wants[text.src]
		if !ok {
			run, _, done := newRun()
			fresh.res, fresh.err = run(text.src)
			done()
			wants[text.src] = fresh
		}
		want, wantErr := fresh.res, fresh.err
		if err != nil || wantErr != nil {
			var c xerr.Coder
			if !errors.As(err, &c) || xerr.CodeOf(err) != xerr.CodeOf(wantErr) {
				t.Fatalf("%s: %v, a fresh engine: %v", label, err, wantErr)
			}
			continue
		}
		if !resultsEqual(got, want) {
			t.Fatalf("%s: the stream's answer is not a fresh engine's; plan %q\ngot  %+v\nwant %+v", label, got.Trace.Plan, got.Entries, want.Entries)
		}
		if combine == CombineAverage || len(text.paths) == 1 {
			key := fmt.Sprint(graph, measure, text.src)
			o, ok := streamOracles.Load(key)
			if !ok {
				o, _ = streamOracles.LoadOrStore(key, oracleQuery(t, g, measure, text.paths, text.weights, text.cands, text.refs, omegas))
			}
			o.(oracleResult).check(t, label, got)
		}
		walked := false
		for _, line := range got.Trace.Plan {
			for _, b := range streamBranches {
				if strings.Contains(line, b) {
					reached[b] = true
				}
			}
			walked = walked || strings.Contains(line, ": numer=walk")
		}
		after := storeKinds(st)
		for key, kind := range before {
			if after[key] != "" {
				continue
			}
			switch kind {
			case "compiled":
				reached["compiled evicted"] = true
			case "kept N":
				// Only a walk puts a kept N: with none, another kind evicted it.
				reached["kept N evicted by another kind"] = reached["kept N evicted by another kind"] || !walked
			case "waist":
				gone[key] = true
			}
		}
		for key, kind := range after {
			reached["N kept"] = reached["N kept"] || kind == "kept N"
			reached["waist rebuilt"] = reached["waist rebuilt"] || kind == "waist" && gone[key]
		}
		before = after
	}
	if cs, ok := CacheStatsOf(mat); ok {
		reached["prefix resume"] = reached["prefix resume"] || cs.PrefixHits > 0
		reached["waist finish"] = reached["waist finish"] || cs.WaistFinishes > 0
	}
}

// streamBudgets are the store budgets an input draws from: one every query
// overflows, one that holds a single norm table of t0, 1 MiB.
func streamBudgets(g *hin.Graph) []int64 {
	lo, hi, _ := g.TypeIDSpan(0)
	return []int64{2 << 10, 12 * int64(hi-lo+1), 1 << 20}
}

// streamMaterializer returns new materializers of a strategy (Baseline, PM,
// SPM over half of t0, Cached) at a crossover the graph reaches, each with a
// store of its own under budget. The index is built once: every engine of an
// input, fresh or not, gets a fresh store over it, and only the store keeps
// history.
func streamMaterializer(g *hin.Graph, strategy int, budget int64) func(*hin.Graph) *Materializer {
	var root *Materializer
	switch strategy {
	case 0:
		root = NewBaseline(g)
	case 1:
		root = NewPM(g)
	case 2:
		var half []hin.VertexID
		for i, v := range g.VerticesOfType(0) {
			if i%2 == 0 {
				half = append(half, v)
			}
		}
		root = NewSPMVertices(g, half)
	default:
		root, _ = NewCached(g, budget)
	}
	return func(g *hin.Graph) *Materializer {
		m := newMaterializer(g, root.ix, root.strategy, budget)
		m.lru.minKnown, m.lru.waists.ratio = 1, 1
		return m
	}
}

// streamOrder is the stream a seed draws from a graph's texts: 12 to 20 of
// them with Zipf repeats, the COMPARED TO slot taking its two sets in turn.
func streamOrder(texts []streamText, setB streamText, stream int64) []streamText {
	r := rand.New(rand.NewSource(stream))
	order := r.Perm(len(texts))
	zipf := rand.NewZipf(r, 1.3, 1, uint64(len(texts)-1))
	var out []streamText
	turn := 0
	for range 12 + r.Intn(9) {
		text := texts[order[zipf.Uint64()]]
		if text.src == texts[1].src {
			if turn++; turn%2 == 0 {
				text = setB
			}
		}
		out = append(out, text)
	}
	return out
}

// One engine answers streams that run at once as a fresh engine answers each
// text: per strategy and store budget, four goroutines each replay one
// seed-corpus stream on one shared engine, and every answer (entries, skipped,
// partial, or the error's code) is a fresh engine's. The store, the compiled
// entries and the handles are what the goroutines share; `make race` holds
// them to it under the race detector.
func TestConcurrentStreamsMatchFreshEngine(t *testing.T) {
	const graph = 1
	g := randomHIN(rand.New(rand.NewSource(graph)), 5)
	texts, setB := streamTexts(g, graph)
	var streams [][]streamText
	seen := map[int64]bool{}
	for _, s := range streamSeeds {
		if !seen[s[1]] && len(streams) < 4 {
			seen[s[1]] = true
			streams = append(streams, streamOrder(texts, setB, s[1]))
		}
	}
	for strategy := range 4 {
		for _, budget := range streamBudgets(g) {
			newMat := streamMaterializer(g, strategy, budget)
			type answer struct {
				res *Result
				err error
			}
			wants := map[string]answer{}
			for _, text := range append(texts, setB) {
				res, err := NewEngine(g, WithMaterializer(newMat(g))).Execute(text.src)
				wants[text.src] = answer{res, err}
			}
			eng := NewEngine(g, WithMaterializer(newMat(g)))
			pool := NewServePool(eng, ServeOptions{Workers: len(streams)})
			var wg sync.WaitGroup
			for i, stream := range streams {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j, text := range stream {
						// Half the streams go through the pool, so its compiled
						// entries are shared too.
						run := eng.Execute
						if i%2 == 1 {
							run = func(src string) (*Result, error) { return pool.Execute(context.Background(), src) }
						}
						got, err := run(text.src)
						want := wants[text.src]
						label := fmt.Sprintf("strategy %d budget %d stream %d text %d %q", strategy, budget, i, j, text.src)
						switch {
						case err != nil || want.err != nil:
							if xerr.CodeOf(err) != xerr.CodeOf(want.err) {
								t.Errorf("%s: %v, a fresh engine: %v", label, err, want.err)
							}
						case got.Partial != want.res.Partial || !resultsEqual(got, want.res):
							t.Errorf("%s: the shared engine's answer is not a fresh engine's\ngot  %+v\nwant %+v", label, got.Entries, want.res.Entries)
						}
					}
				}()
			}
			wg.Wait()
			pool.Close()
		}
	}
}

// storeKinds is the kind of each entry in st: "kept N", "compiled", "waist",
// or "other".
func storeKinds(st *sharedCacheState) map[ckey]string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[ckey]string, len(st.entries))
	for key, el := range st.entries {
		kind := "other"
		switch el.Value.(type) {
		case *keptN:
			kind = "kept N"
		case *compiledQuery:
			kind = "compiled"
		case *waistTable:
			kind = "waist"
		}
		out[key] = kind
	}
	return out
}
