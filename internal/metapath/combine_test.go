package metapath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// Section 6.2's decomposition, as Combine computes it: for a random path cut
// at every interior boundary, Σ_u Φ_P1(v)[u]·Φ_P2(u) is NeighborVector(P1·P2, v)
// bit for bit and exact — counts on these graphs stay far below 2⁵³ — over
// interleaved vertex IDs, multiplicities above 1, sources without a route
// (an empty frontier) and waist vertices whose suffix vector is zero, into the
// dense scratch and into the map one. A walk through ExpandScratch,
// alternating slots, is the same vector too.
func TestQuickCombineIsNeighborVector(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		if seed&1 == 1 {
			g = interleavedGraph(r)
		}
		p := randomValidPath(r, g.Schema(), 5)
		src := g.VerticesOfType(p.Source())
		if len(src) == 0 || p.Hops() < 2 {
			return true
		}
		v := src[r.Intn(len(src))]
		tr, fill, mapped := NewTraverser(g), NewTraverser(g), NewTraverser(g)
		mapped.SetKernel(KernelMap) // Combine's branch for a span past MaxDenseSpan
		want, err := tr.NeighborVector(p, v)
		if err != nil {
			return false
		}
		for b := 1; b < p.Hops(); b++ {
			prefix, suffix := MustNew(p.types[:b+1]...), MustNew(p.types[b:]...)
			frontier, err := tr.NeighborVector(prefix, v)
			if err != nil {
				return false
			}
			for _, c := range []*Traverser{tr, mapped} {
				got, exact := c.Combine(frontier, func(u hin.VertexID) sparse.Vector {
					vec, err := fill.NeighborVector(suffix, u)
					if err != nil {
						t.Errorf("seed %d: suffix from %d: %v", seed, u, err)
					}
					return vec
				}, p.Target())
				if !exact || !sameBits(got, want) {
					t.Logf("seed %d cut %d of %v from %d (%v): Combine = %v (exact=%v), want %v", seed, b, p, v, c.kernel, got, exact, want)
					return false
				}
			}
		}
		cur := sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}
		for hop := 0; hop < p.Hops(); hop++ {
			cur = tr.ExpandScratch(cur, p.Type(hop+1), hop)
		}
		if !sameBits(cur, want) {
			t.Logf("seed %d %v from %d: ExpandScratch walk = %v, want %v", seed, p, v, cur, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A walk through ExpandScratch allocates nothing once the two hop buffers
// have grown, and Combine only its result.
func TestScratchWalkAllocationDiscipline(t *testing.T) {
	g, srcs, dst := bipartite(t, 400, 300, 6)
	tr := NewTraverser(g)
	frontier := sparse.Vector{}
	for _, v := range srcs[:40] {
		frontier.Idx = append(frontier.Idx, int32(v))
		frontier.Val = append(frontier.Val, 2)
	}
	src := g.Type(srcs[0])
	walk := func() {
		out := tr.ExpandScratch(frontier, dst, 0)
		if back := tr.ExpandScratch(out, src, 1); back.IsZero() {
			t.Fatal("empty round trip")
		}
	}
	walk()
	if n := testing.AllocsPerRun(20, walk); n != 0 {
		t.Fatalf("a warmed-up scratch walk allocates %.0f objects", n)
	}
	unit := sparse.Vector{Idx: []int32{int32(srcs[0])}, Val: []float64{1}}
	lookup := func(hin.VertexID) sparse.Vector { return unit }
	combine := func() {
		if _, exact := tr.Combine(frontier, lookup, src); !exact {
			t.Fatal("inexact")
		}
	}
	combine()
	if n := testing.AllocsPerRun(20, combine); n > 2 {
		t.Fatalf("Combine allocates %.0f objects, want its result's two slices", n)
	}
}
