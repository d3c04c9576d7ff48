package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
)

// Tests for the subpath-decomposed cache. The load-bearing property
// throughout: decomposed evaluation is BIT-identical
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
// measure × worker count × {ample, byte-starved} cache, with each query run
// cold then warm, the subpath-decomposed engine's output is bit-identical to
// the baseline engine's.
func TestSubpathBitIdenticalProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		variants := []struct {
			name  string
			bytes int64
		}{
			{"ample", 64 << 20},
			{"starved", 900},
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
					mat, err := NewCached(g, v.bytes)
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
					if v.name == "ample" && cs.PrefixHits == 0 {
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
	mat, err := NewCached(g, 64<<20)
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

// TestSubpathEvictionDegradesToTraversal churns a byte-starved cache and
// checks that an evicted subpath entry only ever costs extra traversal —
// the vectors stay bit-identical to baseline on every round — while the
// byte accounting and the Hits+Misses == loads contract hold exactly.
func TestSubpathEvictionDegradesToTraversal(t *testing.T) {
	g := fig1Graph(t)
	const maxBytes = 300 // a couple of entries: constant eviction
	mat, err := NewCached(g, maxBytes)
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
	st := mat.(*indexed).lru
	if ground := st.recomputeBytes(); ground != cs.Bytes {
		t.Fatalf("byte accounting drifted: atomic %d, ground truth %d", cs.Bytes, ground)
	}
}

// TestSubpathEvictedPrefixMidWorkload deterministically removes a prefix
// entry a longer path had been resuming from; the next load must degrade to
// full traversal (no prefix available) and still produce the right vector.
func TestSubpathEvictedPrefixMidWorkload(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st := mat.(*indexed).lru
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
// goroutines (the original handle and views, one each) with overlapping
// paths; run under -race. Vectors must always match baseline and the counter
// contract must hold.
func TestSubpathConcurrentStress(t *testing.T) {
	g := fig1Graph(t)
	const maxBytes = 400
	mat, err := NewCached(g, maxBytes)
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
		if w > 0 {
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
	st := mat.(*indexed).lru
	if ground := st.recomputeBytes(); ground != cs.Bytes {
		t.Fatalf("byte accounting drifted: atomic %d, ground truth %d", cs.Bytes, ground)
	}
}

// TestCacheProbeNoAllocs pins the hot-path micro-fix: a warm cache probe —
// key construction included — allocates nothing, on an ample cache and on a
// byte-starved one that holds the entry and nothing else. Before Path.Key was
// precomputed and the cache key became a comparable struct, every probe built
// a fresh string.
func TestCacheProbeNoAllocs(t *testing.T) {
	g := fig1Graph(t)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	for _, tc := range []struct {
		name  string
		bytes int64
	}{
		{"ample", 1 << 20},
		{"starved", 200},
	} {
		mat, err := NewCached(g, tc.bytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mat.NeighborVector(p, zoe); err != nil { // warm the entry
			t.Fatal(err)
		}
		if cs, _ := CacheStatsOf(mat); cs.Bytes == 0 {
			t.Fatalf("%s: fixture: the entry does not fit %d bytes", tc.name, tc.bytes)
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

// TestSubpathPlanInTraceAndEvent checks the waist plan line: a feature path
// with a waist is named in the query trace, its terminal rendering and the
// wide event (the /debug/events view), ahead of the reference side's line; a
// path without one stamps nothing.
func TestSubpathPlanInTraceAndEvent(t *testing.T) {
	g := fig1Graph(t)
	mat, _ := eagerWaists(t, g, 1<<20, 1) // ratio 1: the venue between papers is a waist
	ring := obs.NewEventRing(4)
	eng := NewEngine(g, WithMaterializer(mat), WithEventSink(ring))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue.paper.author, author.paper.venue TOP 5;`
	res, err := eng.Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	long, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	const refside = "refside=vertex (held)"
	if want := []string{long.String() + ": waist=venue@2", refside}; !slices.Equal(res.Trace.Plan, want) {
		t.Fatalf("trace plan lines %q, want %q", res.Trace.Plan, want)
	}
	if !strings.Contains(res.Trace.Format(), "plan "+res.Trace.Plan[0]) {
		t.Fatalf("trace rendering lacks the plan line:\n%s", res.Trace.Format())
	}
	evs := ring.Snapshot()
	if len(evs) != 1 || !slices.Equal(evs[0].Plan, res.Trace.Plan) {
		t.Fatalf("event plan lines %+v, want the trace's %q", evs, res.Trace.Plan)
	}
	// Under the production ratio neither path of this graph has a waist.
	plain, _ := NewCached(g, 1<<20)
	res2, err := NewEngine(g, WithMaterializer(plain)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace.Plan) != 1 || res2.Trace.Plan[0] != refside {
		t.Fatalf("paths without a waist stamped plan lines: %v", res2.Trace.Plan)
	}
}

// TestSubpathSharedAcrossViews checks the cross-query contract: a view
// created from a subpath cache shares entries at subpath granularity, so a
// short path materialized through one view is resumed from by a longer path
// through another.
func TestSubpathSharedAcrossViews(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20)
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

// TestPrefixAdmission pins the one admission rule: an intermediate frontier
// is kept iff it covers at least two hops and its measured entry size is at
// most maxBytes/entryShare. On a hub-and-leaves graph (a–b–c–d: one
// hub a with 20 b's of 10 c's each, eight leaf a's with one b of two c's) the
// mean degrees say every a.b.c frontier is small; the hub's is not.
func TestPrefixAdmission(t *testing.T) {
	s := hin.MustSchema("a", "b", "c", "d")
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	s.AllowLink(2, 3)
	bld := hin.NewBuilder(s)
	ds := []hin.VertexID{bld.MustAddVertex(3, "d0"), bld.MustAddVertex(3, "d1"), bld.MustAddVertex(3, "d2")}
	fan := func(name string, bs, cs int) hin.VertexID {
		a := bld.MustAddVertex(0, name)
		for i := 0; i < bs; i++ {
			b := bld.MustAddVertex(1, fmt.Sprintf("%s.b%d", name, i))
			bld.MustAddEdge(a, b)
			for j := 0; j < cs; j++ {
				c := bld.MustAddVertex(2, fmt.Sprintf("%s.b%d.c%d", name, i, j))
				bld.MustAddEdge(b, c)
				bld.MustAddEdge(c, ds[(i+j)%len(ds)])
			}
		}
		return a
	}
	hub := fan("hub", 20, 10)
	var leaves []hin.VertexID
	for i := 0; i < 8; i++ {
		leaves = append(leaves, fan(fmt.Sprintf("leaf%d", i), 1, 2))
	}
	g := bld.Build()

	const maxBytes = 64 << 10 // an intermediate may take 1 KiB: 80 coordinates
	mat, err := NewCached(g, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	st := mat.(*indexed).lru
	abcd, abcba := metapath.MustNew(0, 1, 2, 3), metapath.MustNew(0, 1, 2, 1, 0)
	abc := abcd.Key()[:3]
	base := NewBaseline(g)
	load := func(p metapath.Path, v hin.VertexID) {
		t.Helper()
		got, err := mat.NeighborVector(p, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := base.NeighborVector(p, v)
		vecBitEqual(t, fmt.Sprintf("%v from %s", p, g.Name(v)), want, got)
	}
	resident := func(path string, v hin.VertexID) bool {
		key := ckey{path: path, v: v}
		_, ok := st.entries[key]
		return ok
	}
	all := append([]hin.VertexID{hub}, leaves...)
	for _, v := range all {
		load(abcd, v)
	}
	frontier, _ := base.NeighborVector(metapath.MustNew(0, 1, 2), hub)
	if size := cacheEntrySize(ckey{path: abc, v: hub}, frontier); size <= maxBytes/entryShare {
		t.Fatalf("fixture: the hub's two-hop frontier takes %d bytes, inside the share", size)
	}
	if resident(abc, hub) {
		t.Fatal("the hub's two-hop frontier was kept past its share of the budget")
	}
	for _, v := range all {
		if v != hub && !resident(abc, v) {
			t.Fatalf("the two-hop frontier of %s was not kept", g.Name(v))
		}
		if resident(abc[:2], v) {
			t.Fatalf("a one-hop prefix of %s was stored", g.Name(v))
		}
	}
	// A longer path over the same two hops: the leaves resume, the hub walks.
	for _, v := range all {
		load(abcba, v)
	}
	cs, _ := CacheStatsOf(mat)
	want := CacheStats{Misses: 2 * int64(len(all)), PrefixHits: int64(len(leaves)), HopsSaved: 2 * int64(len(leaves)), Bytes: cs.Bytes}
	if cs != want {
		t.Fatalf("cache stats %+v, want %+v", cs, want)
	}
	if ground := st.recomputeBytes(); ground != cs.Bytes || cs.Bytes > maxBytes {
		t.Fatalf("bytes: atomic %d, ground truth %d, budget %d", cs.Bytes, ground, maxBytes)
	}
}

// BenchmarkCacheProbe measures a warm cache probe end to end: key build,
// map lookup, LRU bump. Run with -benchmem — the headline is 0 allocs/op.
// Before Path precomputed its canonical key and the cache moved to a
// comparable struct key, every probe allocated a fresh key string. The
// parallel arm probes the ample fixture from GOMAXPROCS goroutines: what the
// cache's one lock costs under contention (run it with -cpu 1,2).
func BenchmarkCacheProbe(b *testing.B) {
	const nAuthors = 4096
	g, apa, authors := pathIndexGraph(b, nAuthors)
	for _, tc := range []struct {
		name     string
		bytes    int64
		hot      int // authors probed: their 48 KB entries must all stay resident
		parallel bool
	}{
		{"ample", 256 << 20, nAuthors, false},
		{"starved", 1 << 20, 16, false},
		{"parallel", 256 << 20, nAuthors, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mat, err := NewCached(g, tc.bytes)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range authors[:tc.hot] { // warm every entry
				if _, err := mat.NeighborVector(apa, v); err != nil {
					b.Fatal(err)
				}
			}
			if cs, _ := CacheStatsOf(mat); cs.Evictions != 0 {
				b.Fatalf("fixture: %d evictions while warming, the probes would miss", cs.Evictions)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if tc.parallel {
				var start atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					i, nnz := int(start.Add(997)), 0 // goroutines start apart in the key space
					for ; pb.Next(); i++ {
						vec, err := mat.NeighborVector(apa, authors[i%tc.hot])
						if err != nil {
							b.Error(err)
							return
						}
						nnz += vec.NNZ()
					}
					sinkInt(nnz)
				})
				return
			}
			var nnz int
			for i := 0; i < b.N; i++ {
				vec, err := mat.NeighborVector(apa, authors[i%tc.hot])
				if err != nil {
					b.Fatal(err)
				}
				nnz += vec.NNZ()
			}
			sinkInt(nnz)
		})
	}
}
