package metapath

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// candidateSlices are the shapes SeedValues is asked for: the whole source
// type and its two shard halves (runs of the type, gathered from the pair's
// storage), the type with one vertex missing from the middle and a random
// ascending subset (runs with gaps, gathered row by row), what only a foreign
// shard request can hold — vertices out of order and repeated, of another
// type, and past the end of the graph — and nothing at all.
func candidateSlices(r *rand.Rand, g *hin.Graph, src []hin.VertexID) [][]hin.VertexID {
	foreign := []hin.VertexID{hin.VertexID(g.NumVertices()), hin.InvalidVertex}
	for i := 0; i < 2*len(src); i++ {
		foreign = append(foreign, hin.VertexID(r.Intn(g.NumVertices())))
	}
	gap := slices.Delete(slices.Clone(src), len(src)/2, len(src)/2+1)
	return [][]hin.VertexID{src, src[:len(src)/2], src[len(src)/2:], gap, randomSubset(r, src), foreign, nil}
}

func TestRunOf(t *testing.T) {
	vs := []hin.VertexID{2, 3, 5, 8, 9}
	for _, c := range []struct {
		at    []hin.VertexID
		first int
		ok    bool
	}{
		{vs, 0, true}, {vs[1:4], 1, true}, {vs[4:], 4, true},
		{nil, 0, false}, {[]hin.VertexID{}, 0, false},
		{[]hin.VertexID{3, 8}, 0, false},              // a gap
		{[]hin.VertexID{5, 3}, 0, false},              // descending
		{[]hin.VertexID{3, 3}, 0, false},              // repeated
		{[]hin.VertexID{4, 5}, 0, false},              // starts on no vertex of the list
		{[]hin.VertexID{8, 9, 10}, 0, false},          // runs off the end
		{[]hin.VertexID{hin.InvalidVertex}, 0, false}, // before the first
		{[]hin.VertexID{11}, 0, false},                // past the last
	} {
		if first, ok := runOf(vs, c.at); ok != c.ok || (ok && first != c.first) {
			t.Errorf("runOf(%v, %v) = (%d, %v), want (%d, %v)", vs, c.at, first, ok, c.first, c.ok)
		}
	}
}

// The candidates-only final hop is the full walk read at the candidates:
// SeedValues(p, seed, at)[i] is SeedVector(p, seed) at at[i], Float64bits for
// Float64bits, under every kernel (a forced pull gathers the rows, the push
// kernels finish the walk and look the vertices up, auto decides by cost), on
// block-numbered, interleaved and lopsided graphs (both bodies of the gather,
// with and without the unit shortcut), for zero to six hops, including walks
// whose frontier dies on the way. The seed comes back untouched and the pull
// scratch all zero.
func TestQuickSeedValuesIsSeedVectorAtCandidates(t *testing.T) {
	bg := context.Background()
	bodies := pullBodies{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, maxHops := sparseGraph(r), 6
		switch uint64(seed) % 3 {
		case 1:
			g = interleavedGraph(r)
		case 2:
			g, maxHops = lopsidedGraph(r, 2), 3 // twice three dense hops stay below 2⁵³
		}
		for i := 0; i < 6; i++ {
			p := randomValidPath(r, g.Schema(), maxHops)
			if i == 0 {
				p = MustNew(p.Source()) // zero hops: N is S itself
			}
			src := g.VerticesOfType(p.Source())
			if len(src) == 0 {
				continue
			}
			s := sumOfVectors(t, g, p, randomSubset(r, src))
			kept := s.Clone()
			full, exact, err := NewTraverser(g).SeedVector(bg, p.Reverse(), s)
			if err != nil || !exact {
				t.Logf("seed %d: SeedVector(%v): exact=%v err=%v", seed, p.Reverse(), exact, err)
				return false
			}
			if p.Hops() > 0 && !s.IsZero() {
				bodies.saw(g, p.Type(1), p.Source())
			}
			for _, at := range candidateSlices(r, g, src) {
				for _, k := range []Kernel{KernelAuto, KernelPull, KernelDense, KernelMerge, KernelMap} {
					tr := NewTraverser(g)
					tr.SetKernel(k)
					vals, exact, err := tr.SeedValues(bg, p.Reverse(), s, at)
					if err != nil || !exact || len(vals) != len(at) {
						t.Logf("seed %d kernel %v: SeedValues(%v) = (%d values, exact=%v, %v)", seed, k, p.Reverse(), len(vals), exact, err)
						return false
					}
					for j, v := range at {
						if want := full.At(int32(v)); math.Float64bits(vals[j]) != math.Float64bits(want) {
							t.Logf("seed %d kernel %v path %v: N[%d] = %v, want %v", seed, k, p, v, vals[j], want)
							return false
						}
					}
					for _, x := range tr.in {
						if x != 0 {
							t.Logf("seed %d kernel %v: the pull scratch was left dirty", seed, k)
							return false
						}
					}
					if k == KernelPull && p.Hops() > 0 && !s.IsZero() && tr.KernelCounts().Pull == 0 {
						t.Logf("seed %d: the forced pull never gathered along %v", seed, p.Reverse())
						return false
					}
				}
			}
			if !sameBits(s, kept) {
				t.Logf("seed %d: SeedValues wrote to its seed", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	bodies.check(t)
}

// exact answers for the numerators that are used, and only for them: with
// N[big] = 2⁵³ and N[small] = 2³⁰ a walk read at small alone is exact, one
// that reads big is not (vals nil, the caller walks per vertex), and the full
// vector never is — whether the last hop was gathered or pushed and looked
// up. A frontier on the way past the bound voids every read.
func TestSeedValuesExactnessCoversUsedOnly(t *testing.T) {
	s := hin.MustSchema("a", "b", "c")
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	bld := hin.NewBuilder(s)
	big, small := bld.MustAddVertex(0, "big"), bld.MustAddVertex(0, "small")
	mid, end := bld.MustAddVertex(1, "mid"), bld.MustAddVertex(2, "end")
	for _, e := range []struct {
		u, v hin.VertexID
		m    int32
	}{{big, mid, 1 << 23}, {small, mid, 1}, {mid, end, 1 << 10}} {
		if err := bld.AddEdgeMult(e.u, e.v, e.m); err != nil {
			t.Fatal(err)
		}
	}
	g := bld.Build()
	bg := context.Background()
	back := MustNew(1, 0)
	seed := sparse.Vector{Idx: []int32{int32(mid)}, Val: []float64{1 << 30}}
	for _, k := range []Kernel{KernelAuto, KernelPull, KernelDense} {
		tr := NewTraverser(g)
		tr.SetKernel(k)
		if vals, exact, err := tr.SeedValues(bg, back, seed, []hin.VertexID{small}); err != nil || !exact || len(vals) != 1 || vals[0] != 1<<30 {
			t.Fatalf("kernel %v, read at small: (%v, exact=%v, %v), want ([2^30], true, nil)", k, vals, exact, err)
		}
		for _, at := range [][]hin.VertexID{{big}, {small, big}} {
			if vals, exact, err := tr.SeedValues(bg, back, seed, at); err != nil || exact || vals != nil {
				t.Fatalf("kernel %v, read at %v: (%v, exact=%v, %v), want (nil, false, nil)", k, at, vals, exact, err)
			}
		}
		if _, exact, _ := tr.SeedVector(bg, back, seed); exact {
			t.Fatalf("kernel %v: the full vector holds 2^53 and passed the guard", k)
		}
		// end → mid → {big, small}: the frontier at mid is 2⁴³·2¹⁰ = 2⁵³.
		far := sparse.Vector{Idx: []int32{int32(end)}, Val: []float64{1 << 43}}
		if vals, exact, err := tr.SeedValues(bg, MustNew(2, 1, 0), far, []hin.VertexID{small}); err != nil || exact || vals != nil {
			t.Fatalf("kernel %v, frontier past the bound: (%v, exact=%v, %v), want (nil, false, nil)", k, vals, exact, err)
		}
	}
	// Errors are SeedVector's, and the context is polled before every hop,
	// the gathered one included.
	tr := NewTraverser(g)
	if _, _, err := tr.SeedValues(bg, Path{}, seed, nil); err == nil {
		t.Fatal("zero path accepted")
	}
	if _, _, err := tr.SeedValues(bg, MustNew(0, 1), seed, nil); err == nil {
		t.Fatal("a vertex of type b accepted as the seed of a path from a")
	}
	for n, want := range []error{context.Canceled, context.Canceled, nil} {
		ctx := &pollCtx{Context: bg, n: n, err: context.Canceled}
		if _, _, err := tr.SeedValues(ctx, MustNew(2, 1, 0), sparse.Vector{Idx: []int32{int32(end)}, Val: []float64{1}}, []hin.VertexID{small}); err != want {
			t.Fatalf("context good for %d polls: err = %v, want %v", n, err, want)
		}
	}
}

// The pull kernel's allocation discipline: into a hop buffer that has grown
// to the walk's widest frontier it allocates nothing — reached here the way
// a walk reaches it, through Visibility and the adaptive pick — a fresh
// result is sized by its non-zeros, not by the target type, and shares
// nothing with the traverser; and a traverser that never pulls never pays
// for the scratch.
func TestPullAllocationDiscipline(t *testing.T) {
	// 64 × 64, every source linked to 32 targets: from one source the second
	// hop's frontier is half its type and 1 024 of the 2 048 edges.
	g, srcs, dst := bipartite(t, 64, 64, 32)
	src := g.Type(srcs[0])
	p := MustNew(src, dst, src)
	tr := NewTraverser(g)
	walk := func() {
		for _, v := range srcs {
			if _, err := tr.Visibility(p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	if n := testing.AllocsPerRun(20, walk); n != 0 {
		t.Fatalf("%v allocations per %d pulled walks, want 0", n, len(srcs))
	}
	if c := tr.KernelCounts(); c.Pull == 0 || c.Dense != 0 {
		t.Fatalf("kernel counts %+v: the second hop of every walk should pull", c)
	}

	// 100 of 256 sources reach 107 of 512 targets.
	wide, wsrcs, wdst := bipartite(t, 256, 512, 8)
	front := sparse.Vector{}
	for _, v := range wsrcs[:100] {
		front.Idx, front.Val = append(front.Idx, int32(v)), append(front.Val, 1)
	}
	tr = NewTraverser(wide)
	if tr.Expand(sparse.Vector{Idx: front.Idx[:10], Val: front.Val[:10]}, wdst); tr.in != nil || tr.KernelCounts().Dense != 1 {
		t.Fatal("a traverser that only pushed holds pull scratch")
	}
	tr.SetKernel(KernelPull)
	out := tr.Expand(front, wdst)
	if len(out.Idx) != 107 || cap(out.Idx) > 128 || cap(out.Val) > 128 { // a size class above 107, not the type's 512
		t.Fatalf("fresh pull result: %d coordinates in room for %d/%d, want 107 in little more", len(out.Idx), cap(out.Idx), cap(out.Val))
	}
	kept := out.Clone()
	tr.Expand(sparse.Vector{Idx: front.Idx, Val: make([]float64, len(front.Val))}, wdst) // scribble over the spare
	tr.Expand(sparse.Vector{Idx: front.Idx[:50], Val: front.Val[50:]}, wdst)
	if !sameBits(out, kept) {
		t.Fatal("a fresh pull result shares storage with the traverser")
	}
}
