package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// The reference side has two branches (see referenceSide) that must be
// indistinguishable in everything but cost. The per-vertex loop they replace
// is kept here as the reference: one throwaway traversal per (path, vertex),
// then the scorers the parent commit built from those vectors.
func loopScorers(t *testing.T, e *Engine, plan *queryPlan) *queryScorers {
	t.Helper()
	vecs := make([][]sparse.Vector, len(plan.paths))
	for m, p := range plan.paths {
		for _, v := range plan.refs {
			phi, err := metapath.NewTraverser(e.g).NeighborVector(p, v)
			if err != nil {
				t.Fatal(err)
			}
			vecs[m] = append(vecs[m], phi)
		}
	}
	return newQueryScorers(e.measure, plan.combine, vecs, plan.weights, int32(e.g.NumVertices()))
}

func scorerBitEqual(t *testing.T, label string, want, got *refScorer) {
	t.Helper()
	vecBitEqual(t, label+" aggregate", want.s, got.s)
	if len(want.refs) != len(got.refs) {
		t.Fatalf("%s: %d pairwise references, want %d", label, len(got.refs), len(want.refs))
	}
	for j := range want.refs {
		vecBitEqual(t, fmt.Sprintf("%s reference %d", label, j), want.refs[j], got.refs[j])
		if math.Float64bits(want.refVis[j]) != math.Float64bits(got.refVis[j]) {
			t.Fatalf("%s: visibility %d = %v, want %v", label, j, got.refVis[j], want.refVis[j])
		}
	}
}

// refSideMaterializers builds a fresh one of each materializer kind:
// traversal-only, cache-backed and index-backed, and the first two again
// with the crossover lowered (eagerBaseline) so small sets propagate.
func refSideMaterializers(t *testing.T, g *hin.Graph) map[string]*Materializer {
	t.Helper()
	cache, err := NewCached(g, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	eagerCache, err := NewCached(g, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	eagerCache.lru.minKnown = 1
	return map[string]*Materializer{"baseline": NewBaseline(g), "cached": cache, "pm": NewPM(g),
		"baseline/eager": eagerBaseline(g), "cached/eager": eagerCache}
}

var allMeasures = []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim}
var allCombinations = []Combination{CombineAverage, CombineConcat}

// referenceSide against the loop it replaced, on every materializer kind ×
// measure × combination, for Sr = Sc, Sr ⊂ Sc, a singleton and the empty
// set: scorers bit-equal, the loaded vectors handed back exactly when they
// are the candidates' vectors, and a propagation — on every materializer —
// counted as one traversed vector per feature path.
func TestReferenceSideMatchesPerVertexLoop(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := randomBibGraph(rand.New(rand.NewSource(seed)))
		a, _ := g.Schema().TypeByName("author")
		authors := g.VerticesOfType(a)
		paths := make([]metapath.Path, 3)
		for i, dotted := range []string{"author.paper.venue", "author.paper.author.paper.term", "author.paper.venue.paper.author.paper.venue"} {
			var err error
			if paths[i], err = metapath.ParseDotted(g.Schema(), dotted); err != nil {
				t.Fatal(err)
			}
		}
		for _, refs := range [][]hin.VertexID{authors, authors[1:4], authors[:1], nil} {
			for _, measure := range allMeasures {
				for _, combine := range allCombinations {
					for name, mat := range refSideMaterializers(t, g) {
						label := fmt.Sprintf("seed %d |Sr|=%d %v %v %s", seed, len(refs), measure, combine, name)
						e := NewEngine(g, WithMeasure(measure), WithCombination(combine), WithMaterializer(mat))
						plan := &queryPlan{resolvedQuery: &resolvedQuery{cands: authors, refs: refs, paths: paths, weights: []float64{1, 2.5, 0.3}, combine: combine}}
						want := loopScorers(t, e, plan)
						got, held, err := e.referenceSide(context.Background(), plan, handles{mats: []*Materializer{mat}})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if (want.concat == nil) != (got.concat == nil) || len(want.perPath) != len(got.perPath) {
							t.Fatalf("%s: scorer shape differs", label)
						}
						if want.concat != nil {
							scorerBitEqual(t, label, want.concat, got.concat)
						}
						for m := range want.perPath {
							scorerBitEqual(t, fmt.Sprintf("%s path %d", label, m), want.perPath[m], got.perPath[m])
						}
						propagated := measure == MeasureNetOut && combine == CombineAverage && len(refs) >= mat.lru.need(a)
						if wantHeld := len(refs) == len(authors) && !propagated; (held != nil) != wantHeld {
							t.Fatalf("%s: held vectors returned = %v, want %v", label, held != nil, wantHeld)
						}
						for m := range held {
							for i, v := range authors {
								phi, _ := metapath.NewTraverser(g).NeighborVector(paths[m], v)
								vecBitEqual(t, fmt.Sprintf("%s held[%d][%d]", label, m, i), phi, held[m][i])
							}
						}
						if propagated {
							if st := mat.Stats(); st.TraversedVectors != int64(len(paths)) || st.TraversalTime <= 0 {
								t.Fatalf("%s: propagation stats = %+v, want one traversed vector per path", label, st)
							}
						}
					}
				}
			}
		}
	}
}

// ROADMAP item 4's metamorphic property: spelling the candidate set out
// after COMPARED TO is the same query as omitting the clause — Entries,
// Skipped and every score bit — in every executor, on every materializer
// kind, under every measure and combination. Each cell is also held to the
// sequential cached engine, whose reference side is the per-vertex
// arithmetic of the parent commit.
func TestComparedToCandidateSetEqualsOmittingIt(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(3)))
	sets := []string{`author`, `author{"A0"}.paper.author`}
	features := []string{
		`author.paper.venue`,
		`author.paper.venue : 2, author.paper.term.paper.author : 1`,
	}
	executors := map[string]func() []Option{
		"sequential": func() []Option { return []Option{WithQueryParallelism(1)} },
		"pipeline":   func() []Option { return []Option{WithQueryParallelism(4)} },
		"remote":     func() []Option { return []Option{WithRemoteShards(newFakeFleet(t, g, 2)...)} },
	}
	for _, measure := range allMeasures {
		for _, combine := range allCombinations {
			common := []Option{WithMeasure(measure), WithCombination(combine)}
			refMat, err := NewCached(g, 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewEngine(g, append(common, WithMaterializer(refMat), WithQueryParallelism(1))...)
			for exName, opts := range executors {
				for matName, mat := range refSideMaterializers(t, g) {
					eng := NewEngine(g, append(append(common, WithMaterializer(mat)), opts()...)...)
					for _, set := range sets {
						for _, f := range features {
							label := fmt.Sprintf("%v %v %s %s FROM %s BY %s", measure, combine, exName, matName, set, f)
							omitted := fmt.Sprintf(`FIND OUTLIERS FROM %s JUDGED BY %s TOP 25;`, set, f)
							spelled := fmt.Sprintf(`FIND OUTLIERS FROM %s COMPARED TO %s JUDGED BY %s TOP 25;`, set, set, f)
							want, err := ref.Execute(omitted)
							if err != nil {
								t.Fatal(err)
							}
							for _, src := range []string{omitted, spelled} {
								got, err := eng.Execute(src)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								entriesBitEqual(t, label, want, got)
							}
						}
					}
					eng.Close()
				}
			}
		}
	}
}

// Multiplicities near 2³¹ push the two-hop path counts past 2⁵³, where float
// sums stop being exact and order-free. The propagation must notice and the
// reference side fall through to the per-vertex loop, so a baseline engine
// whose crossover the six authors reach still agrees bit for bit with the
// cached one — whose reference side loads them per vertex, under the default
// crossover — and its counters show the abandoned attempt plus one load per
// vertex of Sr = Sc.
func TestReferenceSideFallsThroughPast2To53(t *testing.T) {
	s := hin.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := hin.NewBuilder(s)
	const nA = 6
	venues := []hin.VertexID{b.MustAddVertex(v, "V0"), b.MustAddVertex(v, "V1")}
	r := rand.New(rand.NewSource(1))
	authors := make([]hin.VertexID, nA)
	for i := range authors {
		authors[i] = b.MustAddVertex(a, fmt.Sprintf("A%d", i))
	}
	// Every paper has two authors, so the per-vertex sums and the
	// propagation associate the same products differently.
	for i := range authors {
		paper := b.MustAddVertex(p, fmt.Sprintf("P%d", i))
		for _, to := range []hin.VertexID{authors[i], authors[(i+1)%nA], venues[i%2], venues[(i+1)%2]} {
			if err := b.AddEdgeMult(paper, to, math.MaxInt32-int32(r.Intn(1<<20))); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	apv := metapath.MustNew(a, p, v)
	if _, exact, err := NewBaseline(g).setVector(context.Background(), apv, g.VerticesOfType(a)); err != nil || exact {
		t.Fatalf("fixture stays in the exact domain (exact=%v, err=%v)", exact, err)
	}
	cache, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(g, WithMaterializer(cache)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	// The arm that loads the candidates a second time was the in-process
	// shard tier; a remote fleet is what still does (six candidates are one
	// inline range locally).
	for _, opts := range [][]Option{{WithQueryParallelism(1)}, {WithRemoteShards(newFakeFleet(t, g, 2)...)}} {
		eng := NewEngine(g, append(opts, WithMaterializer(eagerBaseline(g)))...)
		got, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatal(err)
		}
		entriesBitEqual(t, "past 2^53", want, got)
		// One abandoned propagation, then a load per reference vertex —
		// which the sequential path reuses for the candidates and the shard
		// tier loads again.
		wantLoads := int64(1 + nA)
		if len(got.Trace.Shards) > 0 {
			wantLoads += nA
		}
		if got.Timing.TraversedVectors != wantLoads {
			t.Fatalf("traversed %d vectors, want %d", got.Timing.TraversedVectors, wantLoads)
		}
		eng.Close()
	}
}

// A small Sr ≡ Sc costs one walk per candidate on a default baseline: the
// loads serve both sides. Behind remote shards the coordinator propagates
// instead — the shards load every candidate whatever it does, so per-vertex
// loads there would serve Sr alone — and the query costs one walk per path
// plus the shards' one per candidate.
func TestSmallAnchorSetLoadsOnceWhereverScored(t *testing.T) {
	g := fig1Graph(t)
	a, _ := g.Schema().TypeByName("author")
	nA := int64(g.NumVerticesOfType(a))
	const paths = 1 // faultQuery's
	for _, tc := range []struct {
		name string
		opts []Option
		want int64
	}{
		{"local", nil, nA},
		{"remote", []Option{WithRemoteShards(newFakeFleet(t, g, 2)...)}, paths + nA},
	} {
		eng := NewEngine(g, tc.opts...)
		res, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing.TraversedVectors != tc.want {
			t.Fatalf("%s: traversed %d vectors, want %d", tc.name, res.Timing.TraversedVectors, tc.want)
		}
		eng.Close()
	}
}

// Explain reduces through referenceSide too: on a baseline engine whose
// crossover Sr reaches it costs one Φ and one propagation per feature path,
// and its numbers are the cached engine's — the per-vertex branch, Sr being
// under the default crossover — bit for bit.
func TestExplainSharesTheReferenceSide(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(9)))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.term.paper.author : 2;`
	cache, err := NewCached(g, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The explanation is per path whatever the engine combines with.
	for _, combine := range allCombinations {
		want, err := NewEngine(g, WithMaterializer(cache), WithCombination(combine)).Explain(src, "A7", 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithCombination(combine)).Explain(src, "A7", 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.Score) != math.Float64bits(got.Score) || len(want.Paths) != len(got.Paths) {
			t.Fatalf("explained score %v over %d paths, want %v over %d", got.Score, len(got.Paths), want.Score, len(want.Paths))
		}
		for m := range want.Paths {
			w, x := want.Paths[m], got.Paths[m]
			if math.Float64bits(w.Score) != math.Float64bits(x.Score) || len(w.Contributions) != len(x.Contributions) {
				t.Fatalf("path %s: Ω = %v, want %v", x.Path, x.Score, w.Score)
			}
			for k := range w.Contributions {
				if w.Contributions[k] != x.Contributions[k] {
					t.Fatalf("path %s contribution %d = %+v, want %+v", x.Path, k, x.Contributions[k], w.Contributions[k])
				}
			}
		}
		span, ok := got.Trace.Span("materialize")
		if !ok || span.Stats.TraversedVectors != 2*int64(len(got.Paths)) {
			t.Fatalf("materialize span = %+v, want one Φ and one propagation per path", span)
		}
	}
}
