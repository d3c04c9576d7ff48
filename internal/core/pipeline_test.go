package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"netout/internal/hin"
	"netout/internal/oql"
)

// bigBibGraph builds a random bibliographic network large enough to cross
// the pipeline's chunk gate (several hundred authors), with the tail of the
// author population left paperless — zero visibility under every
// author.paper.* feature path, so NaN scores and the Skipped list are
// exercised at scale.
func bigBibGraph(r *rand.Rand) *hin.Graph { return bibGraphOf(r, 280+r.Intn(60)) }

// bibGraphOf is bigBibGraph with the author count chosen by the caller.
func bibGraphOf(r *rand.Rand, nA int) *hin.Graph {
	s := hin.MustSchema("author", "paper", "venue", "term")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	tm, _ := s.TypeByName("term")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	s.AllowLink(p, tm)
	b := hin.NewBuilder(s)
	nV, nT := 5+r.Intn(5), 8+r.Intn(8)
	var authors, venues, terms []hin.VertexID
	for i := 0; i < nA; i++ {
		authors = append(authors, b.MustAddVertex(a, fmt.Sprintf("A%d", i)))
	}
	for i := 0; i < nV; i++ {
		venues = append(venues, b.MustAddVertex(v, fmt.Sprintf("V%d", i)))
	}
	for i := 0; i < nT; i++ {
		terms = append(terms, b.MustAddVertex(tm, fmt.Sprintf("T%d", i)))
	}
	linkable := authors[:nA-nA/12] // the rest stay paperless
	for i := 0; i < 2*nA; i++ {
		pp := b.MustAddVertex(p, fmt.Sprintf("P%d", i))
		for j := 0; j <= r.Intn(2); j++ {
			b.MustAddEdge(pp, linkable[r.Intn(len(linkable))])
		}
		b.MustAddEdge(pp, venues[r.Intn(nV)])
		for j := 0; j < r.Intn(3); j++ {
			b.MustAddEdge(pp, terms[r.Intn(nT)])
		}
	}
	return b.Build()
}

// compareResults asserts the full determinism contract between two runs of
// the same query: ranked entries bit-identical, skip list identical, and
// every count-valued Timing/trace field identical. (Durations are
// excluded: wall time legitimately varies run to run.)
func compareResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: %d entries, want %d", label, len(got.Entries), len(want.Entries))
	}
	for i := range want.Entries {
		w, g := want.Entries[i], got.Entries[i]
		if w.Vertex != g.Vertex || w.Name != g.Name ||
			math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, g, w)
		}
	}
	if !reflect.DeepEqual(want.Skipped, got.Skipped) {
		t.Fatalf("%s: skipped %v, want %v", label, got.Skipped, want.Skipped)
	}
	if got.CandidateCount != want.CandidateCount || got.ReferenceCount != want.ReferenceCount {
		t.Fatalf("%s: set sizes %d/%d, want %d/%d", label,
			got.CandidateCount, got.ReferenceCount, want.CandidateCount, want.ReferenceCount)
	}
	if got.Timing.TraversedVectors != want.Timing.TraversedVectors ||
		got.Timing.IndexedVectors != want.Timing.IndexedVectors {
		t.Fatalf("%s: timing counters %d/%d, want %d/%d", label,
			got.Timing.TraversedVectors, got.Timing.IndexedVectors,
			want.Timing.TraversedVectors, want.Timing.IndexedVectors)
	}
	if len(got.Trace.Spans) != len(want.Trace.Spans) {
		t.Fatalf("%s: %d trace spans, want %d", label, len(got.Trace.Spans), len(want.Trace.Spans))
	}
	for i, ws := range want.Trace.Spans {
		gs := got.Trace.Spans[i]
		if gs.Phase != ws.Phase {
			t.Fatalf("%s: span %d phase %q, want %q", label, i, gs.Phase, ws.Phase)
		}
		if gs.Stats != ws.Stats {
			t.Fatalf("%s: span %q stats %+v, want %+v", label, ws.Phase, gs.Stats, ws.Stats)
		}
	}
}

// TestPipelineDeterminism is the pipeline's central property test: for
// every measure, combination mode and materialization strategy, the query
// result — ranking bits, skip list, vector/cache counters, phase sequence —
// is identical for workers ∈ {1, 2, 7, GOMAXPROCS} on randomized graphs
// that include zero-visibility candidates. workers=1 takes the sequential
// path, so this simultaneously pins the pipeline to the sequential engine's
// exact output.
func TestPipelineDeterminism(t *testing.T) {
	counts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for seed := int64(1); seed <= 2; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := bigBibGraph(r)
		pm := NewPM(g)
		queries := []struct {
			name, src string
		}{
			{"single", `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;`},
			{"multi", `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.term : 2.5 TOP 15;`},
			// COMPARED TO: refs ≠ cands; no TOP: the unbounded selector.
			{"untop", `FIND OUTLIERS FROM author COMPARED TO venue{"V0"}.paper.author JUDGED BY author.paper.author;`},
		}
		mats := []struct {
			name string
			mk   func() *Materializer
		}{
			{"baseline", func() *Materializer { return NewBaseline(g) }},
			{"pm", func() *Materializer {
				view := NewView(pm)
				return view
			}},
			// Fresh (cold) cache per run: the hit/miss split is deterministic
			// for a fixed starting state, which is what the engine's stats
			// aggregation promises.
			{"cached", func() *Materializer {
				c, err := NewCached(g, 64<<20)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}},
		}
		for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
			for _, comb := range []Combination{CombineAverage, CombineConcat} {
				for _, q := range queries {
					for _, mat := range mats {
						var ref *Result
						for _, n := range counts {
							eng := NewEngine(g,
								WithMeasure(m),
								WithCombination(comb),
								WithMaterializer(mat.mk()),
								WithQueryParallelism(n))
							res, err := eng.Execute(q.src)
							if err != nil {
								t.Fatalf("seed %d %s/%s/%s/%s workers=%d: %v",
									seed, m, comb, q.name, mat.name, n, err)
							}
							if n == 1 {
								if len(res.Skipped) == 0 && q.name != "untop" {
									t.Fatalf("seed %d %s: no skipped candidates — graph does not exercise zero visibility", seed, q.name)
								}
								ref = res
								continue
							}
							label := fmt.Sprintf("seed %d %s/%s/%s/%s workers=%d",
								seed, m, comb, q.name, mat.name, n)
							compareResults(t, label, ref, res)
						}
					}
				}
			}
		}
	}
}

// TestEngineReentrantRace runs concurrent context-carrying executions and
// context-less explains against ONE shared engine. Before contexts and
// tracers were threaded through the call chain as parameters, both were
// stashed in Engine fields and this test failed under -race (and could
// leak one query's cancelled context into another's execution).
func TestEngineReentrantRace(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, WithMaterializer(mat))
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue TOP 5;`
	q, err := oql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				if i%2 == 0 {
					ctx, cancel := context.WithCancel(context.Background())
					res, err := eng.ExecuteQueryContext(ctx, q)
					cancel()
					if err != nil {
						t.Errorf("ExecuteQueryContext: %v", err)
					} else if len(res.Entries) != 3 {
						t.Errorf("entries = %+v", res.Entries)
					}
				} else {
					x, err := eng.Explain(src, "Zoe", 5)
					if err != nil {
						t.Errorf("Explain: %v", err)
					} else if x.Name != "Zoe" {
						t.Errorf("explained %q", x.Name)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// countdownCtx reports Canceled after a fixed number of Err() polls,
// making mid-pipeline cancellation deterministic: the engine checks the
// context at per-vertex granularity, so the budget runs out while workers
// are materializing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestPipelineCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := bigBibGraph(r)
	eng := NewEngine(g, WithQueryParallelism(4))
	q, err := oql.Parse(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 10;`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.remaining.Store(60) // enough to pass planning, not materialization
	res, err := eng.ExecuteQueryContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil", res)
	}
	// The engine must remain fully usable afterwards (no poisoned state).
	if _, err := eng.ExecuteQuery(q); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

// TestTopSelectorMatchesSort pins the bounded selector to the reference
// implementation it replaced: sort everything, truncate to k.
func TestTopSelectorMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(200)
		entries := make([]Entry, n)
		perm := r.Perm(n)
		for i := range entries {
			// Scores drawn from a tiny set force heavy ties; the vertex
			// tie-break must resolve them identically everywhere.
			entries[i] = Entry{
				Vertex: hin.VertexID(perm[i]),
				Name:   fmt.Sprintf("v%d", perm[i]),
				Score:  float64(r.Intn(8)) / 4,
			}
		}
		equal := func(got, want []Entry) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		for _, k := range []int{0, 1, 3, 10, n, n + 5} {
			want := append([]Entry(nil), entries...)
			sort.Slice(want, func(i, j int) bool { return entryBefore(want[i], want[j]) })
			if k > 0 && len(want) > k {
				want = want[:k]
			}

			sel := newTopSelector(k)
			for _, e := range entries {
				sel.push(e)
			}
			if got := sel.ranked(); !equal(got, want) {
				t.Fatalf("trial %d k=%d: ranked = %v, want %v", trial, k, got, want)
			}

			// collect's early drop: entries filtered through admits before
			// push rank exactly as the sort does, k = 0 included.
			filtered := newTopSelector(k)
			for _, e := range entries {
				if filtered.admits(e) {
					filtered.push(e)
				}
			}
			if got := filtered.ranked(); !equal(got, want) {
				t.Fatalf("trial %d k=%d: filtered = %v, want %v", trial, k, got, want)
			}

			// Split across three selectors and merge — the range shape
			// (topSelector.merge went with the chunk pipeline; ranges merge
			// their ranked lists).
			parts := []*topSelector{newTopSelector(k), newTopSelector(k), newTopSelector(k)}
			for i, e := range entries {
				parts[i%3].push(e)
			}
			if got := mergeRanked([][]Entry{parts[0].ranked(), parts[1].ranked(), parts[2].ranked()}, k); !equal(got, want) {
				t.Fatalf("trial %d k=%d: merged = %v, want %v", trial, k, got, want)
			}
		}
	}
}
