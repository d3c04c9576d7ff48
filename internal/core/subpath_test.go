package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
)

// Tests for the subpath-decomposed cache and its cost-based planner. The
// load-bearing property throughout: decomposed evaluation is BIT-identical
// to whole-path evaluation — Float64bits-equal scores and vectors, equal
// ranks and skip lists — for every kernel, measure, worker count and cache
// condition (cold, warm, byte-starved). Decomposition may only change which
// work is skipped, never any result.

// vecBitEqual asserts two vectors are exactly equal, coordinate indices and
// Float64bits of every value.
func vecBitEqual(t *testing.T, label string, want, got sparse.Vector) {
	t.Helper()
	if len(want.Idx) != len(got.Idx) {
		t.Fatalf("%s: nnz %d, want %d", label, len(got.Idx), len(want.Idx))
	}
	for i := range want.Idx {
		if want.Idx[i] != got.Idx[i] || math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
			t.Fatalf("%s: coordinate %d = (%d, %x), want (%d, %x)", label, i,
				got.Idx[i], math.Float64bits(got.Val[i]), want.Idx[i], math.Float64bits(want.Val[i]))
		}
	}
}

// entriesBitEqual asserts two results rank the same vertices with
// Float64bits-equal scores and identical skip lists.
func entriesBitEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(want.Entries) != len(got.Entries) || len(want.Skipped) != len(got.Skipped) {
		t.Fatalf("%s: %d entries / %d skipped, want %d / %d", label,
			len(got.Entries), len(got.Skipped), len(want.Entries), len(want.Skipped))
	}
	for i := range want.Entries {
		w, g := want.Entries[i], got.Entries[i]
		if w.Vertex != g.Vertex || math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, g, w)
		}
	}
	for i := range want.Skipped {
		if want.Skipped[i] != got.Skipped[i] {
			t.Fatalf("%s: skipped[%d] = %d, want %d", label, i, got.Skipped[i], want.Skipped[i])
		}
	}
}

// overlappingQueries share meta-path prefixes across queries: the features
// of the later ones extend the earlier ones, which is exactly the overlap
// the subpath cache exists to exploit.
var overlappingQueries = []string{
	`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;`,
	`FIND OUTLIERS FROM author JUDGED BY author.paper.venue.paper.author TOP 10;`,
	`FIND OUTLIERS FROM author JUDGED BY author.paper.venue.paper.author.paper.term TOP 10;`,
	`FIND OUTLIERS FROM author JUDGED BY author.paper.author, author.paper.author.paper.venue TOP 10;`,
}

// TestSubpathBitIdenticalProperty is the acceptance property: for every
// measure × worker count × {planner on, planner off} × {roomy, byte-starved}
// cache, with each query run cold then warm, the subpath-decomposed engine's
// output is bit-identical to the baseline engine's.
func TestSubpathBitIdenticalProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		variants := []struct {
			name  string
			bytes int64
			opts  []CacheOption
		}{
			{"planner", 64 << 20, []CacheOption{WithSubpathCache()}},
			{"noplanner", 64 << 20, []CacheOption{WithSubpathCache(), WithCachePlanner(false)}},
			{"starved", 900, []CacheOption{WithSubpathCache()}},
		}
		for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
			base := NewEngine(g, WithMeasure(m))
			want := make([]*Result, len(overlappingQueries))
			for i, src := range overlappingQueries {
				res, err := base.Execute(src)
				if err != nil {
					t.Fatalf("seed %d baseline %q: %v", seed, src, err)
				}
				want[i] = res
			}
			for _, workers := range []int{1, 3} {
				for _, v := range variants {
					mat, err := NewCached(g, v.bytes, v.opts...)
					if err != nil {
						t.Fatal(err)
					}
					eng := NewEngine(g, WithMeasure(m), WithMaterializer(mat), WithQueryParallelism(workers))
					for i, src := range overlappingQueries {
						for run := 0; run < 2; run++ { // cold then warm
							label := fmt.Sprintf("seed %d %s workers=%d %s q%d run%d", seed, m, workers, v.name, i, run)
							res, err := eng.Execute(src)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							entriesBitEqual(t, label, want[i], res)
						}
					}
					cs, _ := CacheStatsOf(mat)
					if cs.Hits+cs.Misses == 0 {
						t.Fatalf("seed %d %s: cache saw no loads", seed, v.name)
					}
					if v.name == "planner" && cs.PrefixHits == 0 {
						t.Fatalf("seed %d workers=%d: overlapping queries produced no prefix resumes: %+v", seed, workers, cs)
					}
					if cs.HopsSaved < cs.PrefixHits {
						t.Fatalf("seed %d: HopsSaved %d < PrefixHits %d", seed, cs.HopsSaved, cs.PrefixHits)
					}
				}
			}
		}
	}
}

// TestSubpathKernelsBitIdentical pins decomposed Φ vectors against
// whole-path traversal under every forced kernel: all five must agree with
// the decomposed result to the bit, regardless of which prefix it resumed
// from.
func TestSubpathKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomBibGraph(r)
	mat, err := NewCached(g, 64<<20, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		"author.paper.venue",
		"author.paper.venue.paper.author",
		"author.paper.venue.paper.author.paper.term",
	}
	a, _ := g.Schema().TypeByName("author")
	kernels := []metapath.Kernel{metapath.KernelAuto, metapath.KernelMap, metapath.KernelDense, metapath.KernelMerge, metapath.KernelPull}
	for _, dotted := range paths { // shortest first, so longer paths resume
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g.VerticesOfType(a) {
			got, err := mat.NeighborVector(p, v)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				tr := metapath.NewTraverser(g)
				tr.SetKernel(k)
				want, err := tr.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				vecBitEqual(t, fmt.Sprintf("%s v%d kernel=%s", dotted, v, k), want, got)
			}
		}
	}
	cs, _ := CacheStatsOf(mat)
	if cs.PrefixHits == 0 {
		t.Fatalf("no prefix resumes across nested paths: %+v", cs)
	}
}

// TestSubpathEvictionDegradesToTraversal churns a byte-starved subpath
// cache (planner off: persist everything, maximum eviction pressure) and
// checks that an evicted subpath entry only ever costs extra traversal —
// the vectors stay bit-identical to baseline on every round — while the
// byte accounting and the Hits+Misses == loads contract hold exactly.
func TestSubpathEvictionDegradesToTraversal(t *testing.T) {
	g := fig1Graph(t)
	const maxBytes = 300 // a couple of entries: constant eviction
	mat, err := NewCached(g, maxBytes, WithSubpathCache(), WithCachePlanner(false))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)
	var paths []metapath.Path
	for _, dotted := range []string{"author.paper.venue", "author.paper.venue.paper.author", "author.paper.author.paper.term"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	base := NewBaseline(g)
	loads := 0
	for round := 0; round < 5; round++ {
		for _, p := range paths {
			for _, v := range authors {
				got, err := mat.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				loads++
				want, err := base.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				vecBitEqual(t, fmt.Sprintf("round %d %s v%d", round, p, v), want, got)
			}
		}
	}
	cs, _ := CacheStatsOf(mat)
	if cs.Evictions == 0 {
		t.Fatalf("starved cache never evicted: %+v", cs)
	}
	if cs.Hits+cs.Misses != int64(loads) {
		t.Fatalf("Hits+Misses = %d, want %d loads: %+v", cs.Hits+cs.Misses, loads, cs)
	}
	if cs.Bytes > maxBytes {
		t.Fatalf("cache exceeded budget: %d > %d", cs.Bytes, maxBytes)
	}
	st := mat.(*cached).state
	if ground := st.recomputeBytes(); ground != cs.Bytes {
		t.Fatalf("byte accounting drifted: atomic %d, ground truth %d", cs.Bytes, ground)
	}
}

// TestSubpathEvictedPrefixMidWorkload deterministically removes a prefix
// entry a longer path had been resuming from; the next load must degrade to
// full traversal (no prefix available) and still produce the right vector.
func TestSubpathEvictedPrefixMidWorkload(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	st := mat.(*cached).state
	short, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	long, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")

	if _, err := mat.NeighborVector(short, zoe); err != nil {
		t.Fatal(err)
	}
	if _, err := mat.NeighborVector(long, zoe); err != nil {
		t.Fatal(err)
	}
	cs, _ := CacheStatsOf(mat)
	if cs.PrefixHits != 1 {
		t.Fatalf("long path should have resumed from the short path's entry: %+v", cs)
	}
	// Drop every entry (simulating eviction churn between two loads), then
	// reload the long path: no prefix to resume from, full traversal, same
	// vector as baseline.
	for st.evictOne() {
	}
	got, err := mat.NeighborVector(long, zoe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewBaseline(g).NeighborVector(long, zoe)
	if err != nil {
		t.Fatal(err)
	}
	vecBitEqual(t, "post-eviction reload", want, got)
	cs, _ = CacheStatsOf(mat)
	if cs.PrefixHits != 1 {
		t.Fatalf("evicted prefix cannot be resumed from: %+v", cs)
	}
}

// TestSubpathConcurrentStress hammers a byte-starved subpath cache from 8
// goroutines (half through views) with overlapping paths; run under -race.
// Vectors must always match baseline and the counter contract must hold.
func TestSubpathConcurrentStress(t *testing.T) {
	g := fig1Graph(t)
	const maxBytes = 400
	mat, err := NewCached(g, maxBytes, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)[:3]
	var paths []metapath.Path
	for _, dotted := range []string{"author.paper.venue", "author.paper.author", "author.paper.venue.paper.author", "author.paper.author.paper.term"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	want := make(map[ckey]sparse.Vector)
	base := NewBaseline(g)
	for _, p := range paths {
		for _, v := range authors {
			vec, err := base.NeighborVector(p, v)
			if err != nil {
				t.Fatal(err)
			}
			want[cacheKey(p, v)] = vec
		}
	}
	const (
		workers = 8
		rounds  = 300
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		m := Materializer(mat)
		if w%2 == 1 {
			if m, err = NewView(mat); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(w int, m Materializer) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				p := paths[r.Intn(len(paths))]
				v := authors[r.Intn(len(authors))]
				vec, err := m.NeighborVector(p, v)
				if err != nil {
					errCh <- err
					return
				}
				if !vec.Equal(want[cacheKey(p, v)]) {
					errCh <- fmt.Errorf("worker %d: wrong vector for %v/%d", w, p, v)
					return
				}
			}
		}(w, m)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	cs, _ := CacheStatsOf(mat)
	if total := cs.Hits + cs.Misses; total != workers*rounds {
		t.Fatalf("Hits+Misses = %d, want %d", total, workers*rounds)
	}
	if cs.PrefixHits > cs.Misses {
		t.Fatalf("PrefixHits %d exceeds Misses %d", cs.PrefixHits, cs.Misses)
	}
	if cs.Bytes > maxBytes {
		t.Fatalf("budget exceeded: %d > %d", cs.Bytes, maxBytes)
	}
	st := mat.(*cached).state
	if ground := st.recomputeBytes(); ground != cs.Bytes {
		t.Fatalf("byte accounting drifted: atomic %d, ground truth %d", cs.Bytes, ground)
	}
}

// TestCacheProbeNoAllocs pins the hot-path micro-fix: a warm cache probe —
// key construction included — allocates nothing, for both whole-path and
// subpath caches. Before Path.Key was precomputed and the cache key became
// a comparable struct, every probe built a fresh string.
func TestCacheProbeNoAllocs(t *testing.T) {
	g := fig1Graph(t)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	for _, tc := range []struct {
		name string
		opts []CacheOption
	}{
		{"wholepath", nil},
		{"subpath", []CacheOption{WithSubpathCache()}},
	} {
		mat, err := NewCached(g, 1<<20, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mat.NeighborVector(p, zoe); err != nil { // warm the entry
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := mat.NeighborVector(p, zoe); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm probe allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestPlannerDecisions unit-tests the cost model: estimate shape, persist
// gating by the byte budget, decision counters and plan rendering.
func TestPlannerDecisions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomBibGraph(r)
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	if err != nil {
		t.Fatal(err)
	}

	pl := NewPlanner(g, 64<<20)
	pp := pl.planFor(p)
	if len(pp.est) != p.Hops()+1 || pp.est[0] != 1 {
		t.Fatalf("estimate shape: %v", pp.est)
	}
	if len(pp.persist) != p.Len() {
		t.Fatalf("plan shape: %d persist flags", len(pp.persist))
	}
	if pp.persist[0] || pp.persist[1] {
		t.Fatal("persist flags below 2 types must never be set")
	}
	if s := pl.PlanSummary(p); !strings.Contains(s, "plan (") || !strings.Contains(s, "persist=[") || strings.Contains(s, "kernels=") {
		t.Fatalf("summary rendering: %q", s)
	}
	counts := pl.DecisionCounts()
	if len(counts) != int(planChoiceCount) {
		t.Fatalf("DecisionCounts has %d labels, want %d", len(counts), planChoiceCount)
	}
	for choice, n := range counts {
		if strings.HasPrefix(choice, "kernel-") || n != 0 {
			t.Fatalf("building a plan counted %q = %d: kernels are the traverser's per-hop choice now", choice, n)
		}
	}

	// A budget smaller than any entry's share must turn persistence off.
	tiny := NewPlanner(g, plannerEntryShare)
	for b, on := range tiny.planFor(p).persist {
		if on {
			t.Fatalf("tiny budget persisted boundary %d", b)
		}
	}

	// Replan cadence: the memoized plan is rebuilt after plannerReplanEvery
	// loads (observable through builtAt).
	first := pl.planFor(p)
	for i := 0; i < plannerReplanEvery+1; i++ {
		pl.planFor(p)
	}
	if again := pl.planFor(p); again.builtAt == first.builtAt {
		t.Fatal("plan not rebuilt after replan cadence")
	}
}

// TestSubpathPlanInTraceAndEvent checks the planner's decisions surface in
// the query trace, its terminal rendering, and the wide event (the
// /debug/events view).
func TestSubpathPlanInTraceAndEvent(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(4)
	eng := NewEngine(g, WithMaterializer(mat), WithEventSink(ring))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue.paper.author, author.paper.venue TOP 5;`
	res, err := eng.Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Plan) != 2 {
		t.Fatalf("trace has %d plan lines, want one per feature path: %v", len(res.Trace.Plan), res.Trace.Plan)
	}
	if !strings.Contains(res.Trace.Format(), "plan (") {
		t.Fatalf("trace rendering lacks plan lines:\n%s", res.Trace.Format())
	}
	evs := ring.Snapshot()
	if len(evs) != 1 || len(evs[0].Plan) != 2 {
		t.Fatalf("event plan lines: %+v", evs)
	}
	if evs[0].Plan[0] != res.Trace.Plan[0] {
		t.Fatalf("event and trace disagree: %q vs %q", evs[0].Plan[0], res.Trace.Plan[0])
	}
	// A whole-path cache stamps nothing.
	plain, _ := NewCached(g, 1<<20)
	res2, err := NewEngine(g, WithMaterializer(plain)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace.Plan) != 0 {
		t.Fatalf("whole-path cache stamped plan lines: %v", res2.Trace.Plan)
	}
}

// TestSubpathSharedAcrossViews checks the cross-query contract: a view
// created from a subpath cache shares entries at subpath granularity, so a
// short path materialized through one view is resumed from by a longer path
// through another.
func TestSubpathSharedAcrossViews(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewView(mat)
	if err != nil {
		t.Fatal(err)
	}
	short, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	long, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	if _, err := view.NeighborVector(short, zoe); err != nil {
		t.Fatal(err)
	}
	if _, err := mat.NeighborVector(long, zoe); err != nil {
		t.Fatal(err)
	}
	cs, _ := CacheStatsOf(mat)
	if cs.PrefixHits != 1 {
		t.Fatalf("long path did not resume from the view-warmed prefix: %+v", cs)
	}
}

// TestSubpathPlannerMetrics checks the netout_plan_* and prefix-hit metric
// families register and expose live values for a subpath cache.
func TestSubpathPlannerMetrics(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20, WithSubpathCache())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMaterializerMetrics(reg, mat)
	short, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	long, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	if _, err := mat.NeighborVector(short, zoe); err != nil {
		t.Fatal(err)
	}
	if _, err := mat.NeighborVector(long, zoe); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`netout_cache_prefix_hits_total 1`,
		`netout_cache_hops_saved_total 2`,
		`netout_plan_decisions_total{choice="prefix-resume"} 1`,
		`netout_plan_decisions_total{choice="full-traverse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	pl := PlannerOf(mat)
	if pl == nil {
		t.Fatal("PlannerOf returned nil for a planner-enabled cache")
	}
	if pl.DecisionCounts()["prefix-resume"] != 1 {
		t.Fatalf("decision counts: %v", pl.DecisionCounts())
	}
	if PlannerOf(NewBaseline(g)) != nil {
		t.Error("PlannerOf on baseline should be nil")
	}
	if plain, _ := NewCached(g, 1<<10); PlannerOf(plain) != nil {
		t.Error("PlannerOf on a whole-path cache should be nil")
	}
}

// BenchmarkCacheProbe measures a warm cache probe end to end: key build,
// shard lookup, LRU bump. Run with -benchmem — the headline is 0 allocs/op.
// Before Path precomputed its canonical key and the cache moved to a
// comparable struct key, every probe allocated a fresh key string.
func BenchmarkCacheProbe(b *testing.B) {
	const nAuthors = 4096
	g, apa, authors := pathIndexGraph(b, nAuthors)
	for _, tc := range []struct {
		name string
		opts []CacheOption
	}{
		{"wholepath", nil},
		{"subpath", []CacheOption{WithSubpathCache()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mat, err := NewCached(g, 256<<20, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range authors { // warm every entry
				if _, err := mat.NeighborVector(apa, v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var nnz int
			for i := 0; i < b.N; i++ {
				vec, err := mat.NeighborVector(apa, authors[i%nAuthors])
				if err != nil {
					b.Fatal(err)
				}
				nnz += vec.NNZ()
			}
			sinkInt(nnz)
		})
	}
}
