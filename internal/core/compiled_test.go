package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// compiledStrategies are the materializers the compiled-query tests run over,
// built fresh per use: the 4 KiB cache leaves the compiled entries 512 bytes,
// so nothing is ever retained there and every execution compiles.
var compiledStrategies = []struct {
	name     string
	retains  bool
	material func(t *testing.T, g *hin.Graph) *Materializer
}{
	{"baseline", true, func(t *testing.T, g *hin.Graph) *Materializer { return NewBaseline(g) }},
	{"cached64MiB", true, func(t *testing.T, g *hin.Graph) *Materializer { return mustCached(t, g, 64<<20) }},
	{"cached4KiB", false, func(t *testing.T, g *hin.Graph) *Materializer { return mustCached(t, g, 4<<10) }},
	{"pm", true, func(t *testing.T, g *hin.Graph) *Materializer { return NewPM(g) }},
}

func mustCached(t *testing.T, g *hin.Graph, maxBytes int64) *Materializer {
	t.Helper()
	mat, err := NewCached(g, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

// sameAnswer asserts got is want in everything a client can see: every score
// bit for bit, the skip list, the set sizes, Partial, and the phase sequence.
func sameAnswer(t *testing.T, label string, want, got *Result) {
	t.Helper()
	entriesBitEqual(t, label, want, got)
	if got.CandidateCount != want.CandidateCount || got.ReferenceCount != want.ReferenceCount || got.Partial != want.Partial {
		t.Fatalf("%s: %d candidates, %d references, partial=%v; want %d, %d, %v", label,
			got.CandidateCount, got.ReferenceCount, got.Partial, want.CandidateCount, want.ReferenceCount, want.Partial)
	}
	for i, s := range want.Trace.Spans {
		if i >= len(got.Trace.Spans) || got.Trace.Spans[i].Phase != s.Phase {
			t.Fatalf("%s: spans %+v, want the phases of %+v", label, got.Trace.Spans, want.Trace.Spans)
		}
	}
}

// The compiled query IS the uncompiled query: for every measure, combination,
// materializer and query shape, what a pool answers on a miss (first
// execution) and from its retained entry (third) is what a plain engine, which
// never compiles, answers — bit for bit. The retained scorers are the object
// the first reduction produced, so a hit that consulted the entry and scored
// differently by one bit fails here.
func TestCompiledQueryIsTheUncompiledQuery(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(3)), 150) // two local ranges for the whole-type shapes
	features := "author.paper.venue : 2.0, author.paper.author.paper.term, author.paper.term : 0.5"
	shapes := []struct{ name, src string }{
		{"anchored", `FIND OUTLIERS FROM author{"A3"}.paper.author JUDGED BY ` + features + ` TOP 5;`},
		{"whole-type", `FIND OUTLIERS FROM author JUDGED BY ` + features + ` TOP 10;`},
		{"compared-to", `FIND OUTLIERS FROM author{"A3", "A7"}.paper.author COMPARED TO author JUDGED BY ` + features + `;`},
		{"where", `FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) >= 2 JUDGED BY ` + features + ` TOP 7;`},
	}
	for _, measure := range allMeasures {
		for _, combine := range allCombinations {
			for _, strat := range compiledStrategies {
				opts := []Option{WithMeasure(measure), WithCombination(combine), WithQueryParallelism(2)}
				plain := NewEngine(g, append(opts, WithMaterializer(strat.material(t, g)))...)
				pool := NewServePool(NewEngine(g, append(opts, WithMaterializer(strat.material(t, g)))...), ServeOptions{Workers: 2})
				for _, shape := range shapes {
					label := fmt.Sprintf("%v/%v/%s/%s", measure, combine, strat.name, shape.name)
					want, err := plain.Execute(shape.src)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(want.Entries) == 0 {
						t.Fatalf("%s: fixture ranks nobody", label)
					}
					if want.Trace.Compiled != "" || want.Trace.RefSide != "" {
						t.Fatalf("a plain engine reports compiled=%q refside=%q", want.Trace.Compiled, want.Trace.RefSide)
					}
					for run := 1; run <= 3; run++ {
						got, err := pool.Execute(context.Background(), shape.src)
						if err != nil {
							t.Fatalf("%s run %d: %v", label, run, err)
						}
						sameAnswer(t, fmt.Sprintf("%s run %d", label, run), want, got)
						compiled, refSide := "miss", "computed"
						if run > 1 && strat.retains {
							compiled, refSide = "hit", "memo"
						}
						if got.Trace.Compiled != compiled || got.Trace.RefSide != refSide {
							t.Fatalf("%s run %d: compiled=%s refside=%s, want %s %s", label, run,
								got.Trace.Compiled, got.Trace.RefSide, compiled, refSide)
						}
						if compiled == "hit" && got.Timing.SetRetrieval != 0 {
							t.Fatalf("%s run %d: a hit retrieved sets for %v", label, run, got.Timing.SetRetrieval)
						}
					}
				}
				pool.Close()
			}
		}
	}
}

// The key is the trimmed text: surrounding whitespace shares an entry, any
// other difference — TOP included — does not.
func TestCompiledKeyIsTheTrimmedText(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(5)))
	pool := NewServePool(NewEngine(g), ServeOptions{Workers: 1})
	defer pool.Close()
	q := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;`
	for i, tc := range []struct {
		src      string
		compiled string
		entries  int64
	}{
		{q, "miss", 1},
		{"  \n\t" + q + " \n", "hit", 1},
		{strings.Replace(q, "TOP 3", "TOP 4", 1), "miss", 2},
		{strings.Replace(q, "FROM author", "FROM  author", 1), "miss", 3}, // interior whitespace is text
		{q, "hit", 3},
	} {
		res, err := pool.Execute(context.Background(), tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.Compiled != tc.compiled || pool.compiled.count.Load() != tc.entries {
			t.Fatalf("step %d %q: compiled=%s with %d entries, want %s with %d", i, tc.src,
				res.Trace.Compiled, pool.compiled.count.Load(), tc.compiled, tc.entries)
		}
	}
	if hits, misses := pool.compiled.hits.Load(), pool.compiled.misses.Load(); hits != 2 || misses != 3 {
		t.Fatalf("%d hits, %d misses, want 2 and 3", hits, misses)
	}
}

// Eight goroutines replay twenty texts over one cached materializer, and over
// a bare index with the same budget. The entries are charged to the store's
// one byte account: after every pass the account equals what the store's
// entries hold, re-summed, inside the budget; no entry passes the cap
// (entryShare); and closing the pool gives every byte back. (Which entry goes
// when the budget binds is TestStoreEvictsAcrossKinds'.)
func TestCompiledEntriesAreChargedToTheCache(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(9)), 60)
	var texts []string
	for i := 0; i < 20; i++ {
		texts = append(texts, fmt.Sprintf(`FIND OUTLIERS FROM author{"A%d"}.paper.author JUDGED BY author.paper.venue, author.paper.author.paper.term TOP 5;`, i))
	}
	plain := NewEngine(g)
	want := make([]*Result, len(texts))
	for i, src := range texts {
		var err error
		if want[i], err = plain.Execute(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name   string
		budget int64
	}{{"cached", 64 << 20}, {"cached", 128 << 10}, {"bare", 64 << 20}, {"bare", 128 << 10}} {
		budget := arm.budget
		label := fmt.Sprintf("%s budget %d", arm.name, budget)
		mat := bareWithin(g, budget)
		if arm.name == "cached" {
			mat = mustCached(t, g, budget)
		}
		st := mat.lru
		pool := NewServePool(NewEngine(g, WithMaterializer(mat)), ServeOptions{Workers: 4})
		for pass := 0; pass < 4; pass++ {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range texts {
						k := (i*7 + w*3) % len(texts)
						got, err := pool.Execute(context.Background(), texts[k])
						if err != nil {
							t.Errorf("%s: %v", label, err)
							return
						}
						if len(got.Entries) != len(want[k].Entries) || (len(got.Entries) > 0 && got.Entries[0] != want[k].Entries[0]) {
							t.Errorf("%s text %d: top entry differs from a plain engine's", label, k)
						}
					}
				}(w)
			}
			wg.Wait()
			c := pool.compiled
			if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground {
				t.Fatalf("%s pass %d: cache account %d, re-summed %d", label, pass, got, ground)
			}
			var ground int64
			for _, cq := range c.entries() {
				if ground += cq.size(); cq.charged > budget/entryShare {
					t.Fatalf("%s pass %d: an entry of %d bytes, cap %d", label, pass, cq.charged, budget/entryShare)
				}
			}
			if got := c.bytes.Load(); got != ground || got > budget || got == 0 {
				t.Fatalf("%s pass %d: entries charged %d, hold %d, budget %d", label, pass, got, ground, budget)
			}
			if st.bytes.Load() > budget {
				t.Fatalf("%s pass %d: cache holds %d", label, pass, st.bytes.Load())
			}
		}
		c := pool.compiled
		if entries := c.count.Load(); budget == 64<<20 && entries != int64(len(texts)) {
			t.Fatalf("ample budget: %d entries for %d texts", entries, len(texts))
		} else if budget != 64<<20 && (entries == 0 || entries > int64(len(texts))) {
			t.Fatalf("small budget: %d entries for %d texts", entries, len(texts))
		}
		pool.Close()
		if c.bytes.Load() != 0 || c.count.Load() != 0 || len(c.entries()) != 0 {
			t.Fatalf("%s: closed pool still holds %d bytes in %d entries", label, c.bytes.Load(), c.count.Load())
		}
		if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground {
			t.Fatalf("%s after Close: cache account %d, re-summed %d", label, got, ground)
		}
	}
}

// A retained entry is charged what it holds, S's rank directories included:
// its bytes are size(), and size() exceeds the same entry's without them by
// exactly their bytes.
func TestCompiledChargeCountsTheDirectories(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(3)), 150)
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.author, author.paper.venue TOP 5;`
	pool := NewServePool(NewEngine(g, WithMaterializer(eagerBaseline(g))), ServeOptions{Workers: 1})
	defer pool.Close()
	if _, err := pool.Execute(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	cq, _ := pool.compiled.state.lookup(ckey{path: src, v: pool.compiled.tag}).(*compiledQuery)
	if cq == nil || cq.scorers == nil {
		t.Fatal("the scan's reduction was not retained")
	}
	bare := queryScorers{weights: cq.scorers.weights, stride: cq.scorers.stride}
	var dirBytes int64
	for _, rs := range cq.scorers.perPath {
		dirBytes += int64(rs.dir.Bytes())
		stripped := *rs
		stripped.dir = sparse.Directory{}
		bare.perPath = append(bare.perPath, &stripped)
	}
	if dirBytes == 0 {
		t.Fatal("fixture: no directory bytes")
	}
	without := *cq
	without.scorers = &bare
	if cq.charged != cq.size() || cq.size() != without.size()+dirBytes {
		t.Fatalf("entry charged %d, size %d, %d without the %d bytes of directories",
			cq.charged, cq.size(), without.size(), dirBytes)
	}
}

// The store refuses an entry larger than its one budget, whose vectors and
// compiled entries share it: an insert past the budget by half the compiled
// charge must leave every resident entry alone — let in, it evicts every one
// of them and then itself — and no compiled entry passes the cap.
func TestOversizeInsertSparesTheCacheUnderCompiledCharge(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(9)), 60)
	const budget = 128 << 10
	mat := mustCached(t, g, budget)
	st := mat.lru
	pool := NewServePool(NewEngine(g, WithMaterializer(mat)), ServeOptions{Workers: 1})
	defer pool.Close()
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf(`FIND OUTLIERS FROM author{"A%d"}.paper.author JUDGED BY author.paper.venue TOP 5;`, i)
		if _, err := pool.Execute(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	resident := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.entries)
	}
	charged, before := pool.compiled.bytes.Load(), resident()
	if charged == 0 || before == 0 {
		t.Fatalf("set-up: compiled entries hold %d bytes, %d vectors resident", charged, before)
	}
	for _, cq := range pool.compiled.entries() {
		if cq.charged > budget/entryShare {
			t.Fatalf("a compiled entry of %d bytes, cap %d", cq.charged, budget/entryShare)
		}
	}
	n := int((budget + charged/2 - cacheEntrySize(ckey{path: "oversize"}, sparse.Vector{})) / 12)
	big := sparse.Vector{Idx: make([]int32, n), Val: make([]float64, n)}
	if size := cacheEntrySize(ckey{path: "oversize"}, big); size <= budget {
		t.Fatalf("set-up: entry of %d bytes, want more than the budget %d", size, budget)
	}
	evicted := st.evictions.Load()
	st.insert(ckey{path: "oversize"}, big)
	if after := resident(); after != before || st.evictions.Load() != evicted {
		t.Errorf("an insert the LRU has no room for left %d of %d vectors resident (%d evictions)", after, before, st.evictions.Load()-evicted)
	}
	if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground || got > budget {
		t.Errorf("cache account %d, re-summed %d, budget %d", got, ground, budget)
	}
}

// A first execution whose reduction does not finish — deadline, cancellation
// or panic inside the reference loads — leaves no entry, and the next run is a
// complete miss identical to a plain engine's answer; the one after is a hit.
func TestInterruptedReductionLeavesNoEntry(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(7)))
	want, err := NewEngine(g).Execute(faultRefQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"deadline", "cancel", "panic"} {
		ctx, cancel := context.WithCancel(context.Background())
		if fault == "deadline" {
			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		}
		var fired atomic.Bool
		fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
			if !fired.CompareAndSwap(false, true) {
				return
			}
			switch fault {
			case "panic":
				panic("injected reduction fault")
			case "cancel":
				cancel()
			default:
				<-ctx.Done()
			}
		})
		pool := NewServePool(NewEngine(g, WithMaterializer(fm)), ServeOptions{Workers: 1})
		if res, err := pool.Execute(ctx, faultRefQuery); err == nil {
			t.Fatalf("%s in the reference loads: answered %+v", fault, res)
		}
		cancel()
		if n := pool.compiled.count.Load(); n != 0 {
			t.Fatalf("%s: %d entries after a failed reduction", fault, n)
		}
		for run, compiled := range []string{"miss", "hit"} {
			got, err := pool.Execute(context.Background(), faultRefQuery)
			if err != nil {
				t.Fatalf("%s, run %d after it: %v", fault, run, err)
			}
			sameAnswer(t, fmt.Sprintf("%s, run %d after it", fault, run), want, got)
			if got.Trace.Compiled != compiled {
				t.Fatalf("%s, run %d after it: compiled=%s, want %s", fault, run, got.Trace.Compiled, compiled)
			}
		}
		pool.Close()
	}
}

// Over the per-entry share: a text too long for it is answered and not
// retained; a reduction too large for it (PathSim keeps |Sr| vectors) is
// answered, its parse and resolution retained, and reduced again per query.
func TestOverShareEntryIsAnsweredNotRetained(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(11)), 150)
	a, _ := g.Schema().TypeByName("author")
	long := `FIND OUTLIERS FROM author` + quoted(g, g.VerticesOfType(a)[:100]) + ` JUDGED BY author.paper.venue TOP 5;`
	scan := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;`
	for _, tc := range []struct {
		src               string
		measure           Measure
		entries           int64
		compiled, refSide string
	}{
		{long, MeasureNetOut, 0, "miss", "computed"},
		{scan, MeasurePathSim, 1, "hit", "computed"},
		{scan, MeasureNetOut, 1, "hit", "memo"},
	} {
		want, err := NewEngine(g, WithMeasure(tc.measure)).Execute(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		// 128 KiB of cache: 2 KiB for any one entry.
		pool := NewServePool(NewEngine(g, WithMeasure(tc.measure), WithMaterializer(mustCached(t, g, 128<<10))), ServeOptions{Workers: 1})
		var got *Result
		for run := 0; run < 2; run++ {
			if got, err = pool.Execute(context.Background(), tc.src); err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, fmt.Sprintf("%v %.40s run %d", tc.measure, tc.src, run), want, got)
		}
		if n := pool.compiled.count.Load(); n != tc.entries || got.Trace.Compiled != tc.compiled || got.Trace.RefSide != tc.refSide {
			t.Fatalf("%v %.40s: %d entries, second run compiled=%s refside=%s; want %d, %s, %s", tc.measure, tc.src,
				n, got.Trace.Compiled, got.Trace.RefSide, tc.entries, tc.compiled, tc.refSide)
		}
		pool.Close()
	}
}

// The allocation gate of a served hit: one ServePool.Execute of a text the
// pool holds — a ten-candidate anchor query on a warm cache, the shape of the
// serving benchmark's zipf_warm — allocates the request's own bookkeeping (ID,
// job, trace, result, candidate side, top-k) and nothing for parsing,
// resolving or reducing. Measured: 24 per query (72 when every execution
// compiled, at the parent commit); the ceiling leaves ~20 %.
func TestServedHitAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops what it is handed and the job channel allocates")
	}
	const ceiling = 29
	g := waistBenchGraph(t, 0)
	a, _ := g.Schema().TypeByName("author")
	apa, _ := metapath.ParseDotted(g.Schema(), "author.paper.author")
	tr := metapath.NewTraverser(g)
	var anchor hin.VertexID = -1
	for _, v := range g.VerticesOfType(a) {
		if coauthors, _ := tr.NeighborVector(apa, v); coauthors.NNZ() == 10 {
			anchor = v
			break
		}
	}
	if anchor < 0 {
		t.Fatal("fixture: no author with ten candidates")
	}
	pool := NewServePool(NewEngine(g, WithMaterializer(mustCached(t, g, 64<<20))), ServeOptions{Workers: 1})
	defer pool.Close()
	src := fmt.Sprintf("FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue.paper.author TOP 10;", g.Name(anchor))
	ctx := context.Background()
	run := func() {
		res, err := pool.Execute(ctx, src)
		if err != nil || res.CandidateCount != 10 {
			t.Fatalf("served query: %v", err)
		}
	}
	run()
	run()
	hits := pool.compiled.hits.Load()
	n := testing.AllocsPerRun(50, run)
	if got := pool.compiled.hits.Load() - hits; got != 51 {
		t.Fatalf("%d of 51 runs were hits", got)
	}
	if n > ceiling {
		t.Fatalf("served hit: %.0f allocations per query, ceiling %d", n, ceiling)
	}
	t.Logf("served hit: %.0f allocations per query (ceiling %d)", n, ceiling)
}
