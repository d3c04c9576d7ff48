package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"netout/internal/hin"
)

// concurrencyQueries mixes the shapes a handle sees: a whole-type scan of
// three chunks (ranges under -cpu 4), anchor-derived sets, an explicit
// reference set, several paths, a long path. bigBibGraph's author type stays
// under candSideMinKnown, so Baseline's counts do not depend on what the shared
// visibility table has seen.
var concurrencyQueries = []string{
	`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;`,
	`FIND OUTLIERS FROM author{"A1"}.paper.author JUDGED BY author.paper.venue;`,
	`FIND OUTLIERS FROM author COMPARED TO venue{"V0"}.paper.author JUDGED BY author.paper.author;`,
	`FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.term : 2.5 TOP 15;`,
	`FIND OUTLIERS FROM venue{"V1"}.paper.author JUDGED BY author.paper.venue.paper.author TOP 5;`,
	`FIND OUTLIERS FROM author{"A2"}.paper.venue.paper.author COMPARED TO author JUDGED BY author.paper.term;`,
}

func concurrencyMaterializers(t *testing.T, g *hin.Graph) map[string]func() *Materializer {
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)
	return map[string]func() *Materializer{
		"baseline": func() *Materializer { return NewBaseline(g) },
		"pm":       func() *Materializer { return NewPM(g) },
		"spm":      func() *Materializer { return NewSPMVertices(g, authors[:len(authors)/2]) },
		"cached": func() *Materializer {
			mat, err := NewCached(g, 8<<20)
			if err != nil {
				t.Fatal(err)
			}
			return mat
		},
	}
}

// The concurrency contract (DESIGN.md §6): ONE engine called from eight
// goroutines at once answers every query as a sequential engine does, bit for
// bit, over every strategy — and where a handle's counters are private to it
// (every strategy but Cached, whose counters are the cache's) a query's vector
// counts are its own: nothing another query did at the same time bleeds in.
func TestOneEngineManyGoroutines(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(27)))
	for name, mk := range concurrencyMaterializers(t, g) {
		t.Run(name, func(t *testing.T) {
			serial := NewEngine(g, WithMaterializer(mk()), WithQueryParallelism(1))
			want := make([]*Result, len(concurrencyQueries))
			for i, src := range concurrencyQueries {
				var err error
				if want[i], err = serial.Execute(src); err != nil {
					t.Fatal(err)
				}
			}
			eng := NewEngine(g, WithMaterializer(mk()))
			const callers = 8
			var wg sync.WaitGroup
			wg.Add(callers)
			for c := 0; c < callers; c++ {
				go func(c int) {
					defer wg.Done()
					for round := 0; round < 3; round++ {
						for k := range concurrencyQueries {
							i := (k + c) % len(concurrencyQueries)
							got, err := eng.Execute(concurrencyQueries[i])
							if err != nil {
								t.Errorf("caller %d query %d: %v", c, i, err)
								return
							}
							if !bitIdentical(want[i], got) {
								t.Errorf("caller %d query %d: ranking differs from the sequential run", c, i)
								return
							}
							if name != "cached" && (got.Timing.TraversedVectors != want[i].Timing.TraversedVectors ||
								got.Timing.IndexedVectors != want[i].Timing.IndexedVectors) {
								t.Errorf("caller %d query %d: %d traversed, %d indexed; alone it is %d, %d", c, i,
									got.Timing.TraversedVectors, got.Timing.IndexedVectors,
									want[i].Timing.TraversedVectors, want[i].Timing.IndexedVectors)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// A pool is goroutines over the caller's engine, nothing more: the engine
// answers the same after a ServePool and an ExecuteBatch ran on it (and while
// the pool is up), keeps the query parallelism it was configured with — the
// pool's "unset means 1" is the pool's, per call — and Close leaves no
// goroutine behind.
func TestPoolsLeaveTheEngineAsTheyFoundIt(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(28)))
	for name, mk := range concurrencyMaterializers(t, g) {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(g, WithMaterializer(mk()))
			parallelism := eng.QueryParallelism()
			src := concurrencyQueries[0]
			want, err := eng.Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()

			pool := NewServePool(eng, ServeOptions{Workers: 3})
			for i := 0; i < 2; i++ { // a compiled miss, then a hit
				got, err := pool.Execute(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(want, got) {
					t.Fatal("pool: ranking differs from the engine's own")
				}
				if len(got.Trace.Shards) != 0 {
					t.Fatalf("pool: unset parallelism ran %d ranges, want 1", len(got.Trace.Shards))
				}
			}
			direct, err := eng.Execute(src) // beside the pool, compiled per call
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(want, direct) || direct.Trace.Compiled != "" {
				t.Fatalf("engine beside its pool: same ranking %v, compiled=%q", bitIdentical(want, direct), direct.Trace.Compiled)
			}
			pool.Close()

			results := ExecuteBatch(eng, []string{src, src, src}, BatchOptions{Workers: 3})
			for i, br := range results {
				if br.Err != nil {
					t.Fatal(br.Err)
				}
				if !bitIdentical(want, br.Result) {
					t.Fatalf("batch %d: ranking differs from the engine's own", i)
				}
			}

			noGoroutineLeak(t, before)
			if eng.QueryParallelism() != parallelism {
				t.Fatalf("QueryParallelism = %d after the pools, configured %d", eng.QueryParallelism(), parallelism)
			}
			after, err := eng.Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			if !bitIdentical(want, after) {
				t.Fatal("engine after its pools: ranking differs")
			}
			if wantShards := min(parallelism, chunksOf(want.CandidateCount)); wantShards > 1 && len(after.Trace.Shards) != wantShards {
				t.Fatalf("engine after its pools ran %d ranges, configured for %d", len(after.Trace.Shards), wantShards)
			}
		})
	}
}

// noGoroutineLeak fails t unless the goroutine count settles back to before:
// Close and ExecuteBatch return once their goroutines are past their last
// statement, and the runtime reaps them a moment later. It reports with
// Errorf, so a deferred call still runs its check after a failed test.
func noGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before", n, before)
	}
}

// A pool is a gate, not a set of goroutines: building one with eight tokens,
// serving a query through it and closing it each leave the goroutine count
// where it was.
func TestServePoolStartsNoGoroutines(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(29)))
	eng := NewEngine(g)
	before := runtime.NumGoroutine()
	pool := NewServePool(eng, ServeOptions{Workers: 8})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewServePool: %d goroutines, %d before", n, before)
	}
	if _, err := pool.Execute(context.Background(), concurrencyQueries[0]); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after a served query: %d goroutines, %d before", n, before)
	}
	pool.Close()
	noGoroutineLeak(t, before)
}
