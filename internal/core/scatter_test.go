package core

// The determinism contract of execution (execute.go), held on local ranges:
// for ANY range count, a query must produce results bit-identical to inline
// execution — same entries, same Float64bits scores, same skip order —
// across measures, combinations, strategies, and cold vs warm caches. These
// tests ran on the in-process shard tier until it became
// WithQueryParallelism; they keep what they proved, on bigBibGraph, whose
// several hundred authors are three chunks and so up to three real ranges.
// Tolerance-based comparison would hide exactly the bug class these tests
// exist to catch (re-associated floating point, differing tie-breaks), so
// scores compare via math.Float64bits. All tests here must pass under
// `go test -race -cpu 1,4`.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/hin"
)

// bitIdentical is resultsEqual with zero tolerance: entry vertices, the
// Float64bits of every score, and the skip list must match exactly.
func bitIdentical(a, b *Result) bool {
	if len(a.Entries) != len(b.Entries) || len(a.Skipped) != len(b.Skipped) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Vertex != b.Entries[i].Vertex ||
			math.Float64bits(a.Entries[i].Score) != math.Float64bits(b.Entries[i].Score) {
			return false
		}
	}
	for i := range a.Skipped {
		if a.Skipped[i] != b.Skipped[i] {
			return false
		}
	}
	return true
}

// Execution over local ranges is bit-identical to inline for every range
// count, measure and combination — including a parallelism exceeding the
// chunk count, which the chunk count caps.
func TestQuickShardCountsAgree(t *testing.T) {
	queries := []string{
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue : 2, author.paper.term : 1;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue.paper.author TOP 5;`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := bigBibGraph(r)
		for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
			for _, comb := range []Combination{CombineAverage, CombineConcat} {
				plain := NewEngine(g, WithMeasure(m), WithCombination(comb), WithQueryParallelism(1))
				for _, shards := range []int{1, 2, 3, 7} {
					eng := NewEngine(g, WithMeasure(m), WithCombination(comb), WithQueryParallelism(shards))
					for _, src := range queries {
						want, err1 := plain.Execute(src)
						got, err2 := eng.Execute(src)
						if err1 != nil || err2 != nil {
							t.Logf("measure %v shards=%d %q: %v / %v", m, shards, src, err1, err2)
							eng.Close()
							return false
						}
						if !bitIdentical(want, got) {
							t.Logf("measure %v combine %v shards=%d diverges on %q:\nunsharded %+v\nsharded   %+v",
								m, comb, shards, src, want.Entries, got.Entries)
							eng.Close()
							return false
						}
					}
					eng.Close()
				}
			}
		}
		return true
	}
	// Graphs are twenty times the size the shard tier's were: fewer of them.
	if err := quick.Check(f, &quick.Config{MaxCount: 2}); err != nil {
		t.Fatal(err)
	}
}

// Ranges are bit-identical under the indexed and cached strategies too —
// their views share the PM index read-only and the warm cache itself — on
// both a cold and a warm cache.
func TestShardedStrategiesAgree(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(11)))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author TOP 5;`
	want, err := NewEngine(g, WithQueryParallelism(1)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	mats := map[string]func() *Materializer{
		"pm": func() *Materializer { return NewPM(g) },
		"cached": func() *Materializer {
			m, err := NewCached(g, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for name, mk := range mats {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				eng := NewEngine(g, WithMaterializer(mk()), WithQueryParallelism(shards))
				defer eng.Close()
				for pass, label := range []string{"cold", "warm"} {
					got, err := eng.Execute(src)
					if err != nil {
						t.Fatalf("%s pass: %v", label, err)
					}
					if !bitIdentical(want, got) {
						t.Fatalf("%s pass (run %d) diverges:\nunsharded %+v\nsharded   %+v",
							label, pass, want.Entries, got.Entries)
					}
				}
			})
		}
	}
}

// The coordinator's k-way merge must retain exactly what one selector over
// the union retains, under the same (score, vertex) total order — with
// scores deliberately duplicated across shards so the vertex tie-break is
// what decides both membership and order at the top-k boundary.
func TestMergeRankedMatchesSelector(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nShards := 1 + r.Intn(5)
		n := r.Intn(40)
		k := r.Intn(12) // 0 = unbounded
		// Scores drawn from a 4-value palette force heavy duplication.
		palette := []float64{0, 0.25, 0.25, 0.5, 1}
		perShard := make([]*topSelector, nShards)
		for i := range perShard {
			perShard[i] = newTopSelector(k)
		}
		global := newTopSelector(k)
		for v := 0; v < n; v++ {
			e := Entry{Vertex: hin.VertexID(v), Score: palette[r.Intn(len(palette))]}
			perShard[r.Intn(nShards)].push(e)
			global.push(e)
		}
		lists := make([][]Entry, nShards)
		for i, s := range perShard {
			lists[i] = s.ranked()
		}
		got := mergeRanked(lists, k)
		want := global.ranked()
		if len(got) != len(want) {
			t.Logf("len = %d, want %d", len(got), len(want))
			return false
		}
		for i := range want {
			if got[i].Vertex != want[i].Vertex ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Logf("entry %d = %+v, want %+v", i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A query of several ranges carries full per-range accounting: R statuses
// whose candidate counts partition |Sc|, all complete on a healthy run, one
// sub-span per range on the trace — and the phase shape of where the ranges
// ran: materialize → score → rank locally, reduce → scatter → merge remotely.
func TestShardedResultAccounting(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(3)))
	const shards = 3
	for _, ex := range []struct {
		name           string
		opt            Option
		phases, absent []string
	}{
		{"local", WithQueryParallelism(shards), []string{"materialize", "score", "rank"}, []string{"reduce", "scatter", "merge"}},
		{"remote", WithRemoteShards(newFakeFleet(t, g, shards)...), []string{"reduce", "scatter", "merge"}, []string{"materialize", "score", "rank"}},
	} {
		t.Run(ex.name, func(t *testing.T) {
			res, err := NewEngine(g, ex.opt).Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace.Shards) != shards {
				t.Fatalf("len(res.Trace.Shards) = %d, want %d", len(res.Trace.Shards), shards)
			}
			total := 0
			for i, st := range res.Trace.Shards {
				if st.Shard != i {
					t.Errorf("Shards[%d].Shard = %d", i, st.Shard)
				}
				if st.Partial || st.Err != "" {
					t.Errorf("healthy shard %d marked partial: %+v", i, st)
				}
				if st.Done != st.Candidates {
					t.Errorf("shard %d: Done %d != Candidates %d", i, st.Done, st.Candidates)
				}
				total += st.Candidates
			}
			if total != res.CandidateCount {
				t.Errorf("shard candidates sum to %d, want |Sc| = %d", total, res.CandidateCount)
			}
			for _, phase := range append([]string{"parse", "validate", "plan"}, ex.phases...) {
				if _, ok := res.Trace.Span(phase); !ok {
					t.Errorf("trace missing %q span; spans = %+v", phase, res.Trace.Spans)
				}
			}
			for _, phase := range ex.absent {
				if _, ok := res.Trace.Span(phase); ok {
					t.Errorf("trace records a %q span of the other phase shape", phase)
				}
			}
		})
	}
}

// A query that runs inline — parallelism 1, or no more than a chunk of
// candidates whatever the parallelism — carries no range accounting; Close on
// any engine is safe and idempotent.
func TestUnshardedEngineHasNoShardState(t *testing.T) {
	for name, eng := range map[string]*Engine{
		"parallelism 1": NewEngine(bigBibGraph(rand.New(rand.NewSource(5))), WithQueryParallelism(1)),
		"one chunk":     NewEngine(randomBibGraph(rand.New(rand.NewSource(5))), WithQueryParallelism(4)),
	} {
		res, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace.Shards) != 0 {
			t.Fatalf("%s produced range accounting: %+v", name, res.Trace.Shards)
		}
		eng.Close()
		eng.Close() // idempotent
	}

	var nilEng *Engine
	nilEng.Close() // nil-safe
}
