package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// The traverser recycles its intermediate frontiers between calls, so the
// invariant every materializer must keep is that a vector it hands out —
// to the caller, into the cache, into an index — owns its storage.

// aliasMaterializers builds one of every materializer that traverses through
// a long-lived Traverser: baseline, the cache (ample: every intermediate
// frontier is copied out of hop scratch and kept; byte-starved: none is, and
// results are evicted behind the caller's back) and a PM view, whose longer
// paths take the traverser's odd-tail hop.
func aliasMaterializers(t *testing.T, g *hin.Graph) map[string]*Materializer {
	t.Helper()
	mats := map[string]*Materializer{"baseline": NewBaseline(g)}
	for name, maxBytes := range map[string]int64{"cached": 64 << 20, "cached-starved": 900} {
		m, err := NewCached(g, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		mats[name] = m
	}
	view := NewView(NewPM(g))
	mats["pm-view"] = view
	return mats
}

var aliasPaths = []string{
	"author.paper",
	"author.paper.venue",
	"author.paper.author",
	"author.paper.venue.paper",
	"author.paper.venue.paper.author",
	"author.paper.author.paper.term",
}

// Two (and more) NeighborVector calls on one materializer: every earlier
// result still equals what a throwaway traverser computes, bit for bit,
// after all later calls have run.
func TestNeighborVectorResultsOwnTheirStorage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomBibGraph(rand.New(rand.NewSource(seed)))
		a, _ := g.Schema().TypeByName("author")
		authors := g.VerticesOfType(a)
		for name, mat := range aliasMaterializers(t, g) {
			var got, want []sparse.Vector
			var labels []string
			for round := 0; round < 2; round++ { // second round: warm caches
				for _, dotted := range aliasPaths {
					p, err := metapath.ParseDotted(g.Schema(), dotted)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range authors {
						phi, err := mat.NeighborVector(p, v)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := metapath.NewTraverser(g).NeighborVector(p, v)
						if err != nil {
							t.Fatal(err)
						}
						got, want = append(got, phi), append(want, ref)
						labels = append(labels, fmt.Sprintf("seed %d %s %s v%d round %d", seed, name, dotted, v, round))
					}
				}
			}
			for i := range got {
				vecBitEqual(t, labels[i], want[i], got[i])
			}
		}
	}
}

// The baseline's set-frontier reduction runs through the same hop buffers as
// NeighborVector: every S it hands out must still equal the per-vertex sum a
// throwaway traverser computes after later calls of both kinds have run.
func TestSetVectorResultOwnsItsStorage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomBibGraph(rand.New(rand.NewSource(seed)))
		a, _ := g.Schema().TypeByName("author")
		authors := g.VerticesOfType(a)
		mat := NewBaseline(g)
		var got, want []sparse.Vector
		var labels []string
		for _, set := range [][]hin.VertexID{authors, authors[:2], authors[2:], authors} {
			for _, dotted := range aliasPaths {
				p, err := metapath.ParseDotted(g.Schema(), dotted)
				if err != nil {
					t.Fatal(err)
				}
				s, exact, err := mat.setVector(context.Background(), p, set)
				if err != nil || !exact {
					t.Fatalf("setVector(%s): exact=%v err=%v", dotted, exact, err)
				}
				vecs := make([]sparse.Vector, len(set))
				for i, v := range set {
					if vecs[i], err = metapath.NewTraverser(g).NeighborVector(p, v); err != nil {
						t.Fatal(err)
					}
					if _, err := mat.NeighborVector(p, v); err != nil { // scribble between reductions
						t.Fatal(err)
					}
				}
				got, want = append(got, s), append(want, sparse.Sum(vecs))
				labels = append(labels, fmt.Sprintf("seed %d %s |set|=%d", seed, dotted, len(set)))
			}
		}
		for i := range got {
			vecBitEqual(t, labels[i], want[i], got[i])
		}
	}
}

// The same materializers behind WithQueryParallelism(4): the pipeline's
// workers each traverse through their own view, and `make race` is what
// proves no hop buffer is shared between them.
func TestScratchOwnedHopsUnderQueryParallelism(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(7)))
	base := NewEngine(g)
	for name, mat := range aliasMaterializers(t, g) {
		eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(4))
		for run := 0; run < 2; run++ {
			for i, src := range overlappingQueries {
				want, err := base.Execute(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Execute(src)
				if err != nil {
					t.Fatalf("%s q%d: %v", name, i, err)
				}
				entriesBitEqual(t, fmt.Sprintf("%s q%d run%d", name, i, run), want, got)
			}
		}
	}
}
