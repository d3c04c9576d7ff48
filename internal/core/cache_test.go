package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/oql"
	"netout/internal/sparse"
)

func TestCachedBasics(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Strategy() != StrategyCached || StrategyCached.String() != "Cached" {
		t.Fatal("strategy metadata wrong")
	}
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")

	v1, err := mat.NeighborVector(p, zoe)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := mat.NeighborVector(p, zoe)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Equal(v2) {
		t.Fatal("cache returned different vector")
	}
	cs, ok := CacheStatsOf(mat)
	if !ok {
		t.Fatal("CacheStatsOf failed")
	}
	if cs.Hits != 1 || cs.Misses != 1 || cs.Bytes <= 0 {
		t.Fatalf("cache stats = %+v", cs)
	}
	st := mat.Stats()
	if st.IndexedVectors != 1 || st.TraversedVectors != 1 {
		t.Fatalf("mat stats = %+v", st)
	}
	if mat.IndexBytes() != cs.Bytes {
		t.Fatal("IndexBytes mismatch")
	}
	if _, ok := CacheStatsOf(NewBaseline(g)); ok {
		t.Error("CacheStatsOf on baseline should fail")
	}
}

// A cached handle counts its own work: a view's load moves the cache's
// shared account and the view's Stats, never the root's, so a query's
// counters read off its handles are exact however many queries overlap it.
func TestCachedHandleCountsItsOwnWork(t *testing.T) {
	g := fig1Graph(t)
	mat, _ := NewCached(g, 1<<20)
	view := NewView(mat)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	root := mat.Stats()
	before, _ := CacheStatsOf(mat)
	if _, err := view.NeighborVector(p, zoe); err != nil {
		t.Fatal(err)
	}
	if d := mat.Stats().Sub(root); d.TraversedVectors != 0 || d.IndexedVectors != 0 {
		t.Fatalf("a view's miss moved the root's counters by %+v", d)
	}
	if d := view.Stats(); d.TraversedVectors != 1 || d.IndexedVectors != 0 {
		t.Fatalf("view counted %+v for one miss", d)
	}
	if cs, _ := CacheStatsOf(mat); cs.Misses-before.Misses != 1 {
		t.Fatalf("the cache counted %d misses for the view's load", cs.Misses-before.Misses)
	}
}

func TestCachedErrors(t *testing.T) {
	g := fig1Graph(t)
	if _, err := NewCached(g, 0); err == nil {
		t.Error("zero cache size accepted")
	}
	mat, _ := NewCached(g, 1<<20)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if _, err := mat.NeighborVector(metapath.Path{}, 0); err == nil {
		t.Error("zero path accepted")
	}
	if _, err := mat.NeighborVector(p, hin.VertexID(9999)); err == nil {
		t.Error("bad vertex accepted")
	}
	v, _ := g.Schema().TypeByName("venue")
	kdd, _ := g.VertexByName(v, "KDD")
	if _, err := mat.NeighborVector(p, kdd); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestCachedEviction(t *testing.T) {
	g := fig1Graph(t)
	// A tiny cache that holds roughly one vector.
	mat, err := NewCached(g, 150)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	var authors []hin.VertexID
	for _, n := range []string{"Ava", "Liam", "Zoe"} {
		v, _ := g.VertexByName(a, n)
		authors = append(authors, v)
	}
	for round := 0; round < 3; round++ {
		for _, v := range authors {
			if _, err := mat.NeighborVector(p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs, _ := CacheStatsOf(mat)
	if cs.Evictions == 0 {
		t.Fatalf("expected evictions with a tiny cache: %+v", cs)
	}
	if mat.IndexBytes() > 150 {
		t.Fatalf("cache exceeded its budget: %d", mat.IndexBytes())
	}
}

// Cached results must equal baseline results on random graphs and queries.
func TestQuickCachedAgreesWithBaseline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		cachedMat, err := NewCached(g, 1<<16)
		if err != nil {
			return false
		}
		base := NewEngine(g)
		withCache := NewEngine(g, WithMaterializer(cachedMat))
		for _, src := range randomQueries(r, g) {
			// Run twice to exercise both the miss and hit paths.
			for k := 0; k < 2; k++ {
				rb, err1 := base.Execute(src)
				rc, err2 := withCache.Execute(src)
				if err1 != nil || err2 != nil {
					return false
				}
				if !resultsEqual(rb, rc) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNewViewCachedSharesWarmState(t *testing.T) {
	g := fig1Graph(t)
	mat, _ := NewCached(g, 1<<20)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	want, err := mat.NeighborVector(p, zoe) // warm the cache through the original
	if err != nil {
		t.Fatal(err)
	}

	view := NewView(mat)
	if view.Strategy() != StrategyCached {
		t.Fatal("view strategy wrong")
	}
	if view.IndexBytes() != mat.IndexBytes() || view.IndexBytes() == 0 {
		t.Fatalf("view bytes %d != original %d: warm state not shared",
			view.IndexBytes(), mat.IndexBytes())
	}
	// The view must answer from the warm entry, not by traversal.
	before := view.Stats()
	got, err := view.NeighborVector(p, zoe)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("view returned a different vector")
	}
	d := view.Stats().Sub(before)
	if d.IndexedVectors != 1 || d.TraversedVectors != 0 {
		t.Fatalf("view lookup stats = %+v, want a pure index hit", d)
	}
	// Stats are aggregated over all views: both handles see the same totals.
	vs, _ := CacheStatsOf(view)
	ms, _ := CacheStatsOf(mat)
	if vs != ms {
		t.Fatalf("view stats %+v != original stats %+v", vs, ms)
	}
	if vs.Hits != 1 || vs.Misses != 1 {
		t.Fatalf("aggregated stats = %+v, want 1 hit / 1 miss", vs)
	}
	// Warming flows the other way too: entries inserted through the view
	// are visible to the original handle.
	liam, _ := g.VertexByName(a, "Liam")
	if _, err := view.NeighborVector(p, liam); err != nil {
		t.Fatal(err)
	}
	before = mat.Stats()
	if _, err := mat.NeighborVector(p, liam); err != nil {
		t.Fatal(err)
	}
	if d := mat.Stats().Sub(before); d.TraversedVectors != 0 {
		t.Fatalf("original re-traversed a view-warmed entry: %+v", d)
	}
}

// A minimal deterministic check of the singleflight follower path: a do()
// call that finds a registered flight must wait for it and return the
// leader's result without running its own fn. WaitGroup semantics make
// this order-independent (Done before Wait is fine), so no sleeps.
func TestFlightGroupCoalesces(t *testing.T) {
	var fg flightGroup
	leader := &flightCall{}
	leader.wg.Add(1)
	fg.mu.Lock()
	fg.m = map[ckey]*flightCall{{path: "k"}: leader}
	fg.mu.Unlock()

	type res struct {
		vec sparse.Vector
		err error
	}
	done := make(chan res)
	go func() {
		vec, err := fg.do(ckey{path: "k"}, func() (sparse.Vector, error) {
			t.Error("follower ran its own fn")
			return sparse.Vector{}, nil
		})
		done <- res{vec, err}
	}()
	leader.vec = sparse.Vector{Idx: []int32{7}, Val: []float64{3}}
	leader.wg.Done()
	r := <-done
	if r.err != nil || !r.vec.Equal(leader.vec) {
		t.Fatalf("follower got %v, %v", r.vec, r.err)
	}
	// A fresh key runs fn exactly once and unregisters afterwards.
	ran := 0
	vec, err := fg.do(ckey{path: "fresh"}, func() (sparse.Vector, error) {
		ran++
		return sparse.Vector{Idx: []int32{1}, Val: []float64{1}}, nil
	})
	if err != nil || ran != 1 || vec.IsZero() {
		t.Fatalf("leader path: ran=%d vec=%v err=%v", ran, vec, err)
	}
	fg.mu.Lock()
	if len(fg.m) != 1 { // only the hand-registered "k" remains
		t.Errorf("flight map not cleaned up: %d entries", len(fg.m))
	}
	fg.mu.Unlock()
}

// A miss that panics hands its caller and its followers a classified defect
// and releases its key: the next load of the (path, vertex) runs instead of
// waiting forever on the dead flight.
func TestFlightGroupPanicReleasesKey(t *testing.T) {
	var fg flightGroup
	key := ckey{path: "k"}
	errs := make(chan error, 3) // one slot per load
	load := func(fn func() (sparse.Vector, error)) {
		defer func() {
			if r := recover(); r != nil {
				errs <- fmt.Errorf("panic escaped the flight: %v", r)
			}
		}()
		_, err := fg.do(key, fn)
		errs <- err
	}
	// Every receive is bounded: a wedged key blocks its loads forever.
	next := func(what string) error {
		select {
		case err := <-errs:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned", what)
			return nil
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	go load(func() (sparse.Vector, error) {
		close(entered)
		<-release
		panic("boom")
	})
	<-entered
	go load(func() (sparse.Vector, error) { panic("boom") })
	// Time for the second load to join as a follower; should it run after the
	// first ends, it leads and panics itself, and the checks below still hold.
	time.Sleep(10 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if err := next("a load of a panicking miss"); !IsPanicError(err) {
			t.Errorf("load %d of a panicking miss: %v, want a *PanicError", i, err)
		}
	}
	go load(func() (sparse.Vector, error) { return sparse.Vector{}, nil })
	if err := next("a load of the key after a panicking miss"); err != nil {
		t.Fatalf("load after the panic: %v", err)
	}
}

// The cache is one exact LRU: filled to its budget with equal entries, every
// one touched but one, the next charge evicts exactly the untouched entry,
// whether an insert or a compiled query's charge makes it.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	const n, stale = 40, 5
	vec := sparse.Vector{Idx: []int32{1, 2, 3}, Val: []float64{1, 2, 3}}
	key := func(i int) ckey { return ckey{path: "ab", v: hin.VertexID(i)} }
	size := cacheEntrySize(key(0), vec)
	for _, tc := range []struct {
		name   string
		charge func(st *sharedCacheState)
	}{
		{"insert", func(st *sharedCacheState) { st.insert(key(n), vec) }},
		{"compiled", func(st *sharedCacheState) {
			st.put(&compiledQuery{cache: newCompiledCache(&Materializer{lru: st}), key: ckey{path: "q", v: waistOf - 1}, charged: size})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newSharedCacheState(nil, n*size)
			for i := 0; i < n; i++ {
				st.insert(key(i), vec)
			}
			for i := 0; i < n; i++ {
				if i == stale {
					continue
				}
				if _, ok := st.get(key(i)); !ok {
					t.Fatalf("entry %d of %d evicted while filling to the budget", i, n)
				}
			}
			tc.charge(st)
			var gone []int
			for i := 0; i < n; i++ {
				if _, ok := st.get(key(i)); !ok {
					gone = append(gone, i)
				}
			}
			if len(gone) != 1 || gone[0] != stale || st.evictions.Load() != 1 {
				t.Fatalf("evicted %v (%d evictions), want only the least recently used entry %d", gone, st.evictions.Load(), stale)
			}
			if got := st.bytes.Load(); got != n*size {
				t.Fatalf("account %d bytes after the charge, want the budget %d", got, n*size)
			}
		})
	}
}

// The store evicts by work per byte, not by recency alone. Filled to its
// budget — first a small entry whose walk read much, then larger ones that
// read little — the next insert evicts the least recently used cheap entry
// and keeps the expensive one, which LRU would have dropped. L then ages it:
// unused, it goes once enough cheap entries went before it.
func TestCacheKeepsWhatSavesMostPerByte(t *testing.T) {
	const n = 20
	small := sparse.Vector{Idx: []int32{1}, Val: []float64{1}}
	wide := sparse.Vector{Idx: make([]int32, 8), Val: make([]float64, 8)}
	key := func(i int) ckey { return ckey{path: "abc", v: hin.VertexID(i)} }
	st := newSharedCacheState(nil, cacheEntrySize(key(0), small)+(n-1)*cacheEntrySize(key(1), wide))
	st.keep(key(0), small, 100) // 16 times the work per byte of the others
	for i := 1; i < n; i++ {
		st.keep(key(i), wide, 10)
	}
	if got, want := st.bytes.Load(), st.maxBytes; got != want || st.evictions.Load() != 0 {
		t.Fatalf("set-up: %d bytes of %d, %d evictions", got, want, st.evictions.Load())
	}
	st.keep(key(n), wide, 10)
	if _, ok := st.get(key(0)); !ok {
		t.Fatal("the expensive entry was evicted: recency alone decided")
	}
	if _, ok := st.get(key(1)); ok || st.evictions.Load() != 1 {
		t.Fatalf("cheap entry 1 kept %v after %d evictions; want it, the least recently used cheap entry, alone gone", ok, st.evictions.Load())
	}
	for i := n + 1; i < 100*n; i++ {
		if st.keep(key(i), wide, 10); keptVector(st, key(0)) == nil {
			if i < 2*n {
				t.Fatalf("the expensive entry went after only %d cheap inserts", i-n)
			}
			return
		}
	}
	t.Fatal("the expensive entry never aged out: L does not rise")
}

// One store, one rule, every kind: a vector, a norm table, a waist table, a
// compiled query and a kept N share one store and one budget, all worth no
// work; the one left idle — the least recently used, whatever its kind — is
// the one a charge over the budget evicts, and the others stay. The charge is
// a vector's, or a kept N's: an N evicts an idle vector as any entry does, not
// only other kept N.
func TestStoreEvictsAcrossKinds(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(9)), 60)
	apv, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	pa, _ := metapath.ParseDotted(g.Schema(), "paper.author")
	vec := sparse.Vector{Idx: []int32{1, 2, 3}, Val: []float64{1, 2, 3}}
	offerOf := func(kind string) storeEntry {
		if kind == "kept N" {
			return &keptN{key: ckey{path: "m", v: numerOf}, vs: []hin.VertexID{0}, num: []float64{1}}
		}
		return &cacheEntry{key: ckey{path: "n"}}
	}
	for _, arm := range []struct{ idle, offer string }{
		{"vector", "vector"}, {"norms", "vector"}, {"waist", "vector"}, {"compiled", "vector"},
		{"kept N", "vector"}, {"vector", "kept N"},
	} {
		name := arm.idle
		if arm.offer != "vector" {
			name += " by " + arm.offer
		}
		t.Run(name, func(t *testing.T) {
			st := newSharedCacheState(g, 1<<20)
			pool := newCompiledCache(&Materializer{lru: st})
			keys := map[string]ckey{
				"vector":   {path: apv.Key(), v: 0},
				"norms":    {path: apv.Key(), v: normsOf},
				"waist":    {path: pa.Key(), v: waistOf},
				"compiled": {path: "q", v: pool.tag},
				"kept N":   {path: apv.Key() + strings.Repeat("a", 32), v: numerOf},
			}
			st.keep(keys["vector"], vec, 0)
			st.normTable(apv)
			st.waistTable(pa.Key())
			cq := &compiledQuery{cache: pool, key: keys["compiled"], resolvedQuery: &resolvedQuery{q: &oql.Query{}}}
			cq.charged = cq.size()
			st.put(cq)
			st.put(&keptN{key: keys["kept N"], vs: []hin.VertexID{0}, num: []float64{1}})
			offer := offerOf(arm.offer)
			for kind, key := range keys {
				if e := keptAny(st, key); e == nil || e.bytes() < offer.bytes() {
					t.Fatalf("set-up: the %s entry is missing or smaller than the charge", kind)
				}
			}
			for kind, key := range keys {
				if kind != arm.idle {
					st.lookup(key)
				}
			}
			st.maxBytes = st.bytes.Load()
			st.put(offer)
			for kind, key := range keys {
				if held := keptAny(st, key) != nil; held == (kind == arm.idle) {
					t.Errorf("the %s entry held %v after the charge", kind, held)
				}
			}
			if keptAny(st, offer.ckey()) == nil || st.evictions.Load() != 1 {
				t.Fatalf("%d evictions, the charge held %v: want the idle entry alone evicted", st.evictions.Load(), keptAny(st, offer.ckey()) != nil)
			}
			if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground || got > st.maxBytes {
				t.Fatalf("account %d, re-summed %d, budget %d", got, ground, st.maxBytes)
			}
			if n := pool.count.Load(); n != int64(len(pool.entries())) || pool.bytes.Load() != cq.charged*n {
				t.Fatalf("the pool counts %d entries of %d bytes, holds %d", n, pool.bytes.Load(), len(pool.entries()))
			}
		})
	}
}

// keptAny is the entry under key, nil when there is none; it uses nothing.
func keptAny(st *sharedCacheState, key ckey) storeEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[key]; ok {
		return el.Value.(storeEntry)
	}
	return nil
}

// keptVector is the vector entry under key, nil when there is none; it uses
// nothing.
func keptVector(st *sharedCacheState, key ckey) *cacheEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[key]; ok {
		return el.Value.(*cacheEntry)
	}
	return nil
}

// Eviction is a function of the stream: two replays of one fixed stream of
// anchored queries on a Cached engine whose budget evicts on every query
// hold the same entries, have evicted as many and read the same work after
// every query, and answer the same bits.
func TestCachedReplayIsDeterministic(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(23)), 300)
	a := mustType(t, g, "author")
	authors := g.VerticesOfType(a)
	features := []string{"author.paper.venue", "author.paper.venue.paper.author", "author.paper.author",
		"author.paper.author.paper.venue", "author.paper.author.paper.term"}
	r := rand.New(rand.NewSource(5))
	var stream []string
	for i := 0; i < 60; i++ {
		stream = append(stream, fmt.Sprintf("FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY %s TOP 5;",
			g.Name(authors[r.Intn(len(authors))]), features[r.Intn(len(features))]))
	}
	type step struct {
		keys       []string
		evictions  int64
		work       int64
		entries    []Entry
		traversals int64
	}
	replay := func() []step {
		mat, err := NewCached(g, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		m := mat
		eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
		var steps []step
		for _, src := range stream {
			res, err := eng.Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			st := step{evictions: m.lru.evictions.Load(), work: m.tr.Work(), entries: res.Entries, traversals: res.Timing.TraversedVectors}
			m.lru.mu.Lock()
			for k := range m.lru.entries {
				st.keys = append(st.keys, fmt.Sprintf("%x/%d", k.path, k.v))
			}
			m.lru.mu.Unlock()
			slices.Sort(st.keys)
			steps = append(steps, st)
		}
		return steps
	}
	first, second := replay(), replay()
	if last := first[len(first)-1]; last.evictions < int64(len(stream)) {
		t.Fatalf("set-up: %d evictions over %d queries, want the budget to evict on every query", last.evictions, len(stream))
	}
	for i := range first {
		a, b := first[i], second[i]
		if !slices.Equal(a.keys, b.keys) || a.evictions != b.evictions || a.work != b.work || a.traversals != b.traversals {
			t.Fatalf("query %d: replays hold %d and %d entries (same: %v), evicted %d and %d, read %d and %d, traversed %d and %d",
				i, len(a.keys), len(b.keys), slices.Equal(a.keys, b.keys), a.evictions, b.evictions, a.work, b.work, a.traversals, b.traversals)
		}
		entriesBitEqual(t, fmt.Sprintf("query %d", i), &Result{Entries: a.entries}, &Result{Entries: b.entries})
	}
}

// Shared-cache stress: ≥8 goroutines hammer one cache (the original handle
// and views, one each) with overlapping keys under a budget small enough to
// force constant eviction. Run under -race. Afterwards every counter
// invariant must hold exactly:
//
//	hits + misses == total NeighborVector calls
//	misses == Σ TraversedVectors (singleflight: one traversal per miss)
//	hits   == Σ IndexedVectors, both summed over the handles
//	Bytes  == re-summed entry sizes, and ≤ maxBytes
func TestSharedCacheConcurrentStress(t *testing.T) {
	g := fig1Graph(t)
	const maxBytes = 400 // a handful of entries: evictions guaranteed
	mat, err := NewCached(g, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)[:3] // Ava, Liam, Zoe (skip Hermit: zero Φ is fine but keep keys hot)
	var paths []metapath.Path
	for _, dotted := range []string{"author.paper.venue", "author.paper.author", "author.paper.term", "author.paper.venue.paper.author"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	const (
		workers = 8
		rounds  = 300
	)
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

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	handles := []*Materializer{mat}
	for w := 0; w < workers; w++ {
		m := handles[0]
		if w > 0 { // one handle per goroutine: the original, then views
			m = NewView(mat)
			handles = append(handles, m)
		}
		wg.Add(1)
		go func(w int, m *Materializer) {
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

	cs, ok := CacheStatsOf(mat)
	if !ok {
		t.Fatal("CacheStatsOf failed")
	}
	var st MatStats
	for _, h := range handles {
		st = st.Add(h.Stats())
	}
	total := int64(workers * rounds)
	if cs.Hits+cs.Misses != total {
		t.Fatalf("hits %d + misses %d != %d calls", cs.Hits, cs.Misses, total)
	}
	if cs.Misses != st.TraversedVectors {
		t.Fatalf("misses %d != traversed %d: singleflight accounting broken", cs.Misses, st.TraversedVectors)
	}
	if cs.Hits != st.IndexedVectors {
		t.Fatalf("hits %d != indexed %d", cs.Hits, st.IndexedVectors)
	}
	if cs.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte budget: %+v", maxBytes, cs)
	}
	// Byte accounting survives eviction churn exactly.
	state := mat.lru
	if got := state.recomputeBytes(); got != cs.Bytes {
		t.Fatalf("atomic bytes %d != recomputed %d", cs.Bytes, got)
	}
	if cs.Bytes > maxBytes {
		t.Fatalf("cache exceeded its budget after settling: %d > %d", cs.Bytes, maxBytes)
	}
}

// ---------------------------------------------------------------------------
// Index persistence

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	g := fig1Graph(t)
	pm := NewPM(g)
	var buf bytes.Buffer
	if err := SaveIndex(pm, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(g, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Strategy() != StrategyPM {
		t.Fatalf("strategy = %v", loaded.Strategy())
	}
	if loaded.IndexBytes() != pm.IndexBytes() {
		t.Fatalf("index size %d != original %d", loaded.IndexBytes(), pm.IndexBytes())
	}
	// Loaded index answers queries identically.
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	want, err := NewEngine(g, WithMaterializer(pm)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine(g, WithMaterializer(loaded)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Fatal("loaded index diverges")
	}
	// Loaded index must be answered from the index, not traversal.
	before := loaded.Stats()
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	if _, err := loaded.NeighborVector(p, zoe); err != nil {
		t.Fatal(err)
	}
	d := loaded.Stats().Sub(before)
	if d.IndexedVectors != 1 || d.TraversedVectors != 0 {
		t.Fatalf("loaded index stats = %+v", d)
	}
}

func TestIndexFileHelpers(t *testing.T) {
	g := fig1Graph(t)
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	spm := NewSPMVertices(g, []hin.VertexID{zoe})
	path := filepath.Join(t.TempDir(), "index.noix")
	if err := SaveIndexFile(spm, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndexFile(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Strategy() != StrategySPM || loaded.IndexBytes() != spm.IndexBytes() {
		t.Fatal("SPM round trip failed")
	}
	if _, err := LoadIndexFile(g, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	if err := SaveIndexFile(NewBaseline(g), path); err == nil {
		t.Error("baseline index save accepted")
	}
}

func TestIndexLoadErrors(t *testing.T) {
	g := fig1Graph(t)
	pm := NewPM(g)
	var buf bytes.Buffer
	if err := SaveIndex(pm, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX0123456789"),
		"truncated": good[:len(good)/2],
	}
	// A coordinate of another type than the path's target: Combine would
	// scatter it outside the target's span.
	apv, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	ix := newPathIndex(g)
	ix.put(apv, zoe, sparse.Vector{Idx: []int32{int32(zoe)}, Val: []float64{1}})
	var foreign bytes.Buffer
	if err := SaveIndex(&Materializer{tr: metapath.NewTraverser(g), ix: ix, strategy: StrategyPM}, &foreign); err != nil {
		t.Fatal(err)
	}
	cases["foreign coordinate"] = foreign.Bytes()
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadIndex(g, bytes.NewReader(data)); err == nil {
				t.Error("corrupt index accepted")
			}
		})
	}
	// Graph mismatch.
	g2 := fig1Graph(t)
	b := hin.NewBuilder(g2.Schema())
	b.MustAddVertex(a, "Extra")
	other := b.Build()
	if _, err := LoadIndex(other, bytes.NewReader(good)); err == nil ||
		!strings.Contains(err.Error(), "different graph") {
		t.Errorf("graph mismatch not detected: %v", err)
	}
}

// ---------------------------------------------------------------------------
// The one index build

// buildIndex, behind NewPM and NewSPMVertices, against a loop of plain
// Traverser.NeighborVector per (path, vertex) kept here as the reference:
// the same IndexBytes, every vector Float64bits-equal, and both unchanged by
// a SaveIndex/LoadIndex round trip. (SaveIndex walks its tables in map order,
// so file bytes are not compared.)
func TestBuildIndexMatchesPerVertexTraversal(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(11)))
	paths := allLength2Paths(g.Schema())
	var some []hin.VertexID
	for v := 0; v < g.NumVertices(); v += 3 {
		some = append(some, hin.VertexID(v))
	}
	isSome := func(v hin.VertexID) bool { return v%3 == 0 }
	for _, tc := range []struct {
		name     string
		built    *Materializer
		strategy Strategy
		indexed  func(hin.VertexID) bool
	}{
		{"PM", NewPM(g), StrategyPM, func(hin.VertexID) bool { return true }},
		{"SPM", NewSPMVertices(g, some), StrategySPM, isSome},
	} {
		if tc.built.Strategy() != tc.strategy {
			t.Fatalf("%s: strategy %s", tc.name, tc.built.Strategy())
		}
		tr := metapath.NewTraverser(g)
		ref := newPathIndex(g)
		for _, p := range paths {
			for _, v := range g.VerticesOfType(p.Source()) {
				if !tc.indexed(v) {
					continue
				}
				vec, err := tr.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				ref.put(p, v, vec)
			}
		}
		var file bytes.Buffer
		if err := SaveIndex(tc.built, &file); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndex(g, &file)
		if err != nil {
			t.Fatal(err)
		}
		for label, m := range map[string]*Materializer{"built": tc.built, "reloaded": loaded} {
			label = tc.name + " " + label
			if m.IndexBytes() != ref.bytes {
				t.Fatalf("%s: IndexBytes %d, per-vertex loop %d", label, m.IndexBytes(), ref.bytes)
			}
			ix := m.ix
			for _, p := range paths {
				for _, v := range g.VerticesOfType(p.Source()) {
					want, inRef := ref.probe(ref.table(p), v)
					got, ok := ix.probe(ix.table(p), v)
					if ok != inRef || ok != tc.indexed(v) {
						t.Fatalf("%s: %v from %d indexed=%v, reference %v", label, p, v, ok, inRef)
					}
					vecBitEqual(t, fmt.Sprintf("%s %v from %d", label, p, v), want, got)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Histogram

func TestHistogram(t *testing.T) {
	scores := []float64{1, 1.1, 1.2, 5, 5.1, 5.2, 5.3, 9.9}
	h, err := NewHistogram(scores, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != 1 || h.Max != 9.9 || h.Total != 8 {
		t.Fatalf("histogram = %+v", h)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 8 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Counts[0] != 3 || h.Counts[1] != 4 || h.Counts[2] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	out := h.Render(20)
	if !strings.Contains(out, "█") || !strings.Contains(out, "8 scores") {
		t.Fatalf("render = %q", out)
	}
	if out2 := h.Render(0); !strings.Contains(out2, "█") {
		t.Fatal("default bar width broken")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Error("empty scores accepted")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	nan := []float64{1, 2, 3}
	nan = append(nan, []float64{0 / zero(), inf()}...)
	h, err := NewHistogram(nan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 3 {
		t.Fatalf("NaN/Inf not dropped: %+v", h)
	}
	// All-identical scores: single bin takes everything.
	h, err = NewHistogram([]float64{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[3] != 3 {
		t.Fatalf("degenerate histogram = %+v", h)
	}
}

func zero() float64 { return 0 }
func inf() float64  { return 1 / zero() }

func TestResultScoreHistogram(t *testing.T) {
	g := fig1Graph(t)
	res, err := NewEngine(g).Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := res.ScoreHistogram(2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 3 {
		t.Fatalf("histogram total = %d", h.Total)
	}
	if h.Render(10) == "" {
		t.Error("empty render")
	}
}

// An SPM index with no materialized vertices must fall back to traversal
// (the walk of a chunk with no table) and still agree with the baseline bit
// for bit. A load that walks is one traversed vector, however many hops it
// walks (Figure 4's "not indexed vectors"), and so is a miss on a table that
// exists: SPM over {Zoe} loading author.paper.venue at anyone else.
func TestIndexedMaterializerTraversalFallback(t *testing.T) {
	g := fig1Graph(t)
	empty := NewSPMVertices(g, nil) // nothing indexed
	base := NewBaseline(g)
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	onlyZoe := NewSPMVertices(g, []hin.VertexID{zoe})
	for _, dotted := range []string{"author.paper.venue", "author.paper.author", "author.paper.venue.paper.author"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range g.VerticesOfType(a) {
			want, err1 := base.NeighborVector(p, v)
			before := empty.Stats()
			got, err2 := empty.NeighborVector(p, v)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !want.Equal(got) {
				t.Fatalf("fallback diverges for %s on %s: %v vs %v", dotted, g.Name(v), got, want)
			}
			if d := empty.Stats().Sub(before); d.TraversedVectors != 1 {
				t.Fatalf("empty SPM load of %s at %s = %+v, want one traversed vector", dotted, g.Name(v), d)
			}
			if p.Hops() != 2 || v == zoe {
				continue
			}
			before = onlyZoe.Stats()
			if got, err := onlyZoe.NeighborVector(p, v); err != nil || !want.Equal(got) {
				t.Fatalf("SPM{Zoe} miss for %s on %s: %v, %v vs %v", dotted, g.Name(v), err, got, want)
			}
			if d := onlyZoe.Stats().Sub(before); d.TraversedVectors != 1 || d.IndexedVectors != 0 {
				t.Fatalf("SPM{Zoe} miss of %s at %s = %+v, want one traversed vector", dotted, g.Name(v), d)
			}
		}
	}
	st := empty.Stats()
	if st.TraversedVectors == 0 || st.IndexedVectors != 0 {
		t.Fatalf("fallback stats = %+v", st)
	}
}

func TestEngineAccessors(t *testing.T) {
	g := fig1Graph(t)
	pm := NewPM(g)
	eng := NewEngine(g, WithMeasure(MeasureCosSim), WithMaterializer(pm), WithCombination(CombineConcat))
	if eng.Graph() != g {
		t.Error("Graph accessor wrong")
	}
	if eng.measure != MeasureCosSim {
		t.Error("WithMeasure not applied")
	}
	if eng.mat != pm {
		t.Error("WithMaterializer not applied")
	}
	if eng.combine != CombineConcat {
		t.Error("WithCombination not applied")
	}
}

// failWriter errors after n bytes, exercising SaveIndex's write error paths.
type failWriter struct{ remaining int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, fmt.Errorf("synthetic write failure")
	}
	n := len(p)
	if n > w.remaining {
		n = w.remaining
	}
	w.remaining -= n
	if n < len(p) {
		return n, fmt.Errorf("synthetic write failure")
	}
	return n, nil
}

func TestSaveIndexWriteFailures(t *testing.T) {
	g := fig1Graph(t)
	pm := NewPM(g)
	// Probe several truncation points: header, path table, vector payload.
	for _, budget := range []int{0, 2, 10, 40, 100, 500} {
		if err := SaveIndex(pm, &failWriter{remaining: budget}); err == nil {
			t.Errorf("budget %d: write failure not propagated", budget)
		}
	}
	// A big enough budget succeeds.
	var buf bytes.Buffer
	if err := SaveIndex(pm, &buf); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(pm, &failWriter{remaining: buf.Len()}); err != nil {
		t.Fatalf("exact budget should succeed: %v", err)
	}
}

// insert keeps a vector worth no work: every such entry is in one class, so
// among them the store is an exact LRU.
func (st *sharedCacheState) insert(key ckey, vec sparse.Vector) { st.keep(key, vec, 0) }

// evictOne is evictLocked under mu; tests empty the store with it.
func (st *sharedCacheState) evictOne() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictLocked()
}

// recomputeBytes walks the entries and re-sums what they hold — a waist
// table's slots and filled vectors, a compiled query's size; tests use it to
// verify the atomic byte accounting against ground truth.
func (st *sharedCacheState) recomputeBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total int64
	for c := range st.order {
		for el := st.order[c].Front(); el != nil; el = el.Next() {
			switch e := el.Value.(type) {
			case *compiledQuery:
				total += e.size()
			case *waistTable:
				total += 8 * int64(len(e.slots))
				for i := range e.slots {
					if vec := e.slots[i].Load(); vec != nil {
						total += int64(vec.Bytes()) + waistSlotOverhead
					}
				}
			default:
				total += e.(storeEntry).bytes()
			}
		}
	}
	return total
}

// entries is the pool's entries in its store; it uses none.
func (c *compiledCache) entries() (out []*compiledQuery) {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	for _, el := range c.state.entries {
		if cq, ok := el.Value.(*compiledQuery); ok && cq.cache == c {
			out = append(out, cq)
		}
	}
	return out
}

// BenchmarkStoreCharge measures what the store's one byte account charges
// against the live heap it holds, per kind of entry: a store of zipf_spill's
// budget (1 MiB) on the serving benchmark's graph is filled with one kind
// alone until it first evicts, or its input runs out, and charged/heap is the
// growth of the account over the growth of the live heap
// (runtime/metrics' /memory/classes/heap/objects:bytes after a collection).
// Below 1 the store holds more than it is charged. Every store is warmed by
// one offer first, so the handle's scratch is not counted.
func BenchmarkStoreCharge(b *testing.B) {
	g := waistBenchGraph(b, 0)
	const budget = 1 << 20
	parse := func(dotted string) metapath.Path {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)
	apa := parse("author.paper.author")
	tr := metapath.NewTraverser(g)
	for _, kind := range []struct {
		name string
		// setup returns a store and its next offer, false once the input is
		// out.
		setup func() (*sharedCacheState, func() bool)
	}{
		{"vector", func() (*sharedCacheState, func() bool) {
			mat, st := eagerWaists(b, g, budget, waistRatio)
			i := 0
			return st, func() bool {
				_, err := mat.NeighborVector(apa, authors[i%len(authors)])
				i++
				return err == nil && i < len(authors)
			}
		}},
		{"prefix", func() (*sharedCacheState, func() bool) {
			st := newSharedCacheState(g, budget)
			i := 0
			return st, func() bool {
				v := authors[i%len(authors)]
				phi, _ := tr.NeighborVector(apa, v)
				st.keepPrefix(apa.Key(), v, phi, 1)
				i++
				return i < len(authors)
			}
		}},
		{"waist_table", func() (*sharedCacheState, func() bool) {
			st := newSharedCacheState(g, budget)
			var suffixes []metapath.Path
			for _, dotted := range []string{"venue.paper.author", "venue.paper.term", "venue.paper.author.paper.venue", "venue.paper.author.paper.term", "venue.paper.term.paper.venue"} {
				suffixes = append(suffixes, parse(dotted))
			}
			s, u := 0, 0
			return st, func() bool {
				tbl := st.waistTable(suffixes[s].Key())
				vec, _ := tr.NeighborVector(suffixes[s], tbl.ids[u])
				st.keepWaist(tbl, tbl.ids[u], vec, 1)
				if u++; u == len(tbl.ids) {
					s, u = s+1, 0
				}
				return s < len(suffixes)
			}
		}},
		{"compiled_query", func() (*sharedCacheState, func() bool) {
			mat := newMaterializer(g, newPathIndex(g), StrategyBaseline, budget)
			pool := NewServePool(NewEngine(g, WithMaterializer(mat)), ServeOptions{Workers: 1})
			i := 0
			return mat.lru, func() bool {
				src := fmt.Sprintf("FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 5;", g.Name(authors[i%len(authors)]))
				_, err := pool.Execute(context.Background(), src)
				i++
				return err == nil && i < len(authors)
			}
		}},
		{"norm_table", func() (*sharedCacheState, func() bool) {
			st := newSharedCacheState(g, budget)
			var paths []metapath.Path
			for _, dotted := range []string{"author.paper", "author.paper.author", "author.paper.venue", "author.paper.term", "author.paper.author.paper", "author.paper.venue.paper", "author.paper.term.paper", "author.paper.author.paper.author", "author.paper.author.paper.venue", "author.paper.venue.paper.author"} {
				paths = append(paths, parse(dotted))
			}
			i := 0
			return st, func() bool {
				st.normTable(paths[i])
				i++
				return i < len(paths)
			}
		}},
		{"kept_n", func() (*sharedCacheState, func() bool) {
			st := newSharedCacheState(g, budget)
			p := parse("author.paper.venue")
			i := 0
			return st, func() bool {
				s, _, _ := tr.SetVector(context.Background(), p, authors[i:i+5])
				st.put(&keptN{key: numerKey(p.Key(), sumOf(s)), vs: authors, num: make([]float64, len(authors)), rank: rank{work: 1}})
				i += 5
				return i+5 <= len(authors)
			}
		}},
	} {
		b.Run("kind="+kind.name, func(b *testing.B) {
			var charged, heap int64
			for i := 0; i < b.N; i++ {
				st, offer := kind.setup()
				more := offer()
				heap0, bytes0 := liveHeap(), st.bytes.Load()
				for more && st.evictions.Load() == 0 {
					more = offer()
				}
				heap = liveHeap() - heap0
				charged = st.bytes.Load() - bytes0
				runtime.KeepAlive(st)
			}
			b.ReportMetric(float64(charged)/float64(heap), "charged/heap")
			b.ReportMetric(float64(charged)/1024, "charged-KiB")
		})
	}
}

// liveHeap is the heap's live objects' bytes after a collection.
func liveHeap() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
