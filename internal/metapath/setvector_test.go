package metapath

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// sumOfVectors is what SetVector replaces, kept as its reference: one
// NeighborVector per vertex on a traverser of its own, then sparse.Sum.
func sumOfVectors(t testing.TB, g *hin.Graph, p Path, set []hin.VertexID) sparse.Vector {
	t.Helper()
	tr := NewTraverser(g)
	vecs := make([]sparse.Vector, len(set))
	for i, v := range set {
		var err error
		if vecs[i], err = tr.NeighborVector(p, v); err != nil {
			t.Fatal(err)
		}
	}
	return sparse.Sum(vecs)
}

// sameBits is Float64bits-strict vector equality.
func sameBits(a, b sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// sparseGraph is randomGraph with a drawn edge density, so low draws leave
// dead-end vertices and whole hops without a single edge, and multiplicities
// up to 5.
func sparseGraph(r *rand.Rand) *hin.Graph {
	s := hin.MustSchema("a", "b", "c")
	types := []hin.TypeID{0, 1, 2}
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	s.AllowLink(0, 2)
	bld := hin.NewBuilder(s)
	vs := make([][]hin.VertexID, len(types))
	for _, t := range types {
		for i := 0; i < 3+r.Intn(7); i++ {
			vs[t] = append(vs[t], bld.MustAddVertex(t, fmt.Sprintf("%d.%d", t, i)))
		}
	}
	for _, pair := range [][2]hin.TypeID{{0, 1}, {1, 2}, {0, 2}} {
		density := r.Float64() * 0.6
		for _, x := range vs[pair[0]] {
			for _, y := range vs[pair[1]] {
				if r.Float64() < density {
					if err := bld.AddEdgeMult(x, y, int32(1+r.Intn(5))); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return bld.Build()
}

// randomSubset draws an ascending duplicate-free subset of vs: empty, a
// singleton, all of it, or a coin flip per vertex.
func randomSubset(r *rand.Rand, vs []hin.VertexID) []hin.VertexID {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []hin.VertexID{vs[r.Intn(len(vs))]}
	case 2:
		return vs
	}
	var out []hin.VertexID
	for _, v := range vs {
		if r.Intn(2) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// checkSetVector holds SetVector under every kernel to the per-vertex sum,
// bit for bit, and checks the result owns its storage: a later call on the
// same traverser must not show through it.
func checkSetVector(t testing.TB, g *hin.Graph, p Path, set []hin.VertexID) bool {
	t.Helper()
	want := sumOfVectors(t, g, p, set)
	for _, k := range []Kernel{KernelAuto, KernelDense, KernelMerge, KernelMap} {
		tr := NewTraverser(g)
		tr.SetKernel(k)
		got, exact, err := tr.SetVector(context.Background(), p, set)
		if err != nil || !exact {
			t.Logf("kernel %v: SetVector(%v, %v): exact=%v err=%v", k, p, set, exact, err)
			return false
		}
		// Scribble over the scratch with other sets before comparing.
		all := g.VerticesOfType(p.Source())
		for _, other := range [][]hin.VertexID{all, all[:1], set} {
			if _, _, err := tr.SetVector(context.Background(), p, other); err != nil {
				t.Log(err)
				return false
			}
		}
		if !sameBits(got, want) {
			t.Logf("kernel %v: SetVector(%v, %v) = %v, want %v", k, p, set, got, want)
			return false
		}
	}
	return true
}

func TestQuickSetVectorMatchesSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparseGraph(r)
		for i := 0; i < 8; i++ {
			p := randomValidPath(r, g.Schema(), 6)
			if i == 0 {
				p = MustNew(p.Source()) // zero hops: S is the seed itself
			}
			if !checkSetVector(t, g, p, randomSubset(r, g.VerticesOfType(p.Source()))) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A frontier that dies mid-path: a1 reaches a paper, a3 reaches none, and no
// paper has a venue, so every set reduces to the zero vector — by an empty
// seed, an empty first frontier or an empty second one.
func TestSetVectorEmptyFrontiers(t *testing.T) {
	s := hin.MustSchema("author", "paper", "venue")
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	b := hin.NewBuilder(s)
	a1, a3 := b.MustAddVertex(0, "a1"), b.MustAddVertex(0, "a3")
	b.MustAddEdge(a1, b.MustAddVertex(1, "p1"))
	b.MustAddVertex(2, "v1")
	g := b.Build()
	p := MustNew(0, 1, 2, 1)
	for _, set := range [][]hin.VertexID{nil, {a3}, {a1}, {a1, a3}} {
		if !checkSetVector(t, g, p, set) {
			t.Fatalf("set %v", set)
		}
		if got, _, _ := NewTraverser(g).SetVector(context.Background(), p, set); !got.IsZero() {
			t.Fatalf("SetVector(%v) = %v, want zero", set, got)
		}
	}
}

// The exactness guard: on a 2-hop multigraph whose multiplicities multiply
// past 2⁵³ SetVector must refuse (exact=false, zero vector) instead of
// handing out a rounded sum, and just below the bound it must still agree
// with the per-vertex sum bit for bit.
func TestSetVectorExactnessGuard(t *testing.T) {
	build := func(m1, m2 int32) (*hin.Graph, []hin.VertexID) {
		s := hin.MustSchema("a", "b", "c")
		s.AllowLink(0, 1)
		s.AllowLink(1, 2)
		bld := hin.NewBuilder(s)
		x, y := bld.MustAddVertex(0, "x"), bld.MustAddVertex(0, "y")
		mid, end := bld.MustAddVertex(1, "mid"), bld.MustAddVertex(2, "end")
		for _, e := range []struct {
			u, v hin.VertexID
			m    int32
		}{{x, mid, m1}, {y, mid, 1}, {mid, end, m2}} {
			if err := bld.AddEdgeMult(e.u, e.v, e.m); err != nil {
				t.Fatal(err)
			}
		}
		return bld.Build(), []hin.VertexID{x, y}
	}
	p := MustNew(0, 1, 2)

	g, set := build(math.MaxInt32, math.MaxInt32) // (2³¹−1+1)·(2³¹−1) ≈ 2⁶²
	s, exact, err := NewTraverser(g).SetVector(context.Background(), p, set)
	if err != nil || exact || !s.IsZero() {
		t.Fatalf("past 2^53: SetVector = (%v, exact=%v, %v), want (zero, false, nil)", s, exact, err)
	}

	g, set = build(1<<26-1, 1<<26) // (2²⁶−1+1)·2²⁶ = 2⁵²: the largest power below the bound
	if !checkSetVector(t, g, p, set) {
		t.Fatal("below 2^53: SetVector disagrees with the per-vertex sum")
	}
	g, set = build(1<<27-1, 1<<26) // 2²⁷·2²⁶ = 2⁵³ exactly: the bound itself is out
	if _, exact, _ := NewTraverser(g).SetVector(context.Background(), p, set); exact {
		t.Fatal("a count of exactly 2^53 passed the guard")
	}
}

// pollCtx reports err from its n-th Err call on.
type pollCtx struct {
	context.Context
	n   int
	err error
}

func (c *pollCtx) Err() error {
	if c.n--; c.n < 0 {
		return c.err
	}
	return nil
}

func TestSetVectorErrorsAndCancellation(t *testing.T) {
	g, ids := kernelGraph(t)
	author, _ := g.Schema().TypeByName("author")
	paper, _ := g.Schema().TypeByName("paper")
	apa := MustNew(author, paper, author)
	tr := NewTraverser(g)
	bg := context.Background()
	if _, _, err := tr.SetVector(bg, Path{}, nil); err == nil {
		t.Fatal("zero path accepted")
	}
	if _, _, err := tr.SetVector(bg, apa, []hin.VertexID{ids["a1"], ids["p1"]}); err == nil {
		t.Fatal("a paper accepted as the source of an author path")
	}
	if _, _, err := tr.SetVector(bg, apa, []hin.VertexID{hin.VertexID(g.NumVertices())}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	// The context is polled before each of the two hops, and not after.
	set := []hin.VertexID{ids["a1"], ids["a2"]}
	for polls := 0; polls < 2; polls++ {
		ctx := &pollCtx{Context: bg, n: polls, err: context.Canceled}
		if s, _, err := tr.SetVector(ctx, apa, set); !errors.Is(err, context.Canceled) || !s.IsZero() {
			t.Fatalf("cancelled at poll %d: got (%v, %v)", polls, s, err)
		}
	}
	if _, exact, err := tr.SetVector(&pollCtx{Context: bg, n: 2, err: context.Canceled}, apa, set); err != nil || !exact {
		t.Fatalf("two polls should complete a two-hop propagation: exact=%v err=%v", exact, err)
	}
}

// FuzzSetVector decodes arbitrary bytes into a small three-type network with
// multiplicities, a path of up to seven hops bouncing over it and a source
// subset, then holds SetVector under every kernel to the per-vertex sum.
func FuzzSetVector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 12, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3, 1, 4, 2, 5, 4, 0xff})
	f.Add([]byte{1, 1, 1, 0, 3, 1})                                      // no edges at all
	f.Add([]byte{5, 2, 4, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 0x15, 2}) // partial set
	f.Fuzz(func(t *testing.T, data []byte) {
		pop := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		s := hin.MustSchema("a", "b", "c")
		s.AllowLink(0, 1)
		s.AllowLink(1, 2)
		bld := hin.NewBuilder(s)
		vs := make([][]hin.VertexID, 3)
		for ty := range vs {
			for i, n := 0, pop()%6+1; i < n; i++ {
				vs[ty] = append(vs[ty], bld.MustAddVertex(hin.TypeID(ty), fmt.Sprintf("%d.%d", ty, i)))
			}
		}
		for i, n := 0, pop()%40; i < n; i++ {
			lo := pop() % 2 // an a–b or a b–c edge
			x := vs[lo][pop()%len(vs[lo])]
			y := vs[lo+1][pop()%len(vs[lo+1])]
			if err := bld.AddEdgeMult(x, y, int32(pop()%7+1)); err != nil {
				t.Fatal(err)
			}
		}
		g := bld.Build()
		// A walk over the chain a–b–c that turns around at either end.
		ty, dir := pop()%3, 1
		types := []hin.TypeID{hin.TypeID(ty)}
		for i, n := 0, pop()%8; i < n; i++ {
			if ty+dir < 0 || ty+dir > 2 {
				dir = -dir
			}
			ty += dir
			types = append(types, hin.TypeID(ty))
		}
		p := MustNew(types...)
		var set []hin.VertexID
		mask := pop()
		for i, v := range g.VerticesOfType(p.Source()) {
			if mask>>i&1 == 1 {
				set = append(set, v)
			}
		}
		if !checkSetVector(t, g, p, set) {
			t.Fatal("SetVector disagrees with the per-vertex sum")
		}
	})
}

// SeedVector along P⁻¹ seeded with S is the product M_P·S: coordinate v is
// Φ_P(v)·S, for every v of P's source type at once — the identity the
// candidate side's numerators rest on. Held Float64bits-strict against the
// per-vertex dots under every kernel, on graphs where S comes from a random
// reference subset; and the seed, which the walk only reads, must come back
// untouched.
func TestQuickSeedVectorIsEveryDotAtOnce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparseGraph(r)
		for i := 0; i < 8; i++ {
			p := randomValidPath(r, g.Schema(), 6)
			if i == 0 {
				p = MustNew(p.Source()) // zero hops: N is S itself
			}
			src := g.VerticesOfType(p.Source())
			s := sumOfVectors(t, g, p, randomSubset(r, src))
			kept := s.Clone()
			for _, k := range []Kernel{KernelAuto, KernelDense, KernelMerge, KernelMap} {
				tr := NewTraverser(g)
				tr.SetKernel(k)
				n, exact, err := tr.SeedVector(context.Background(), p.Reverse(), s)
				if err != nil || !exact {
					t.Logf("seed %d kernel %v: SeedVector(%v): exact=%v err=%v", seed, k, p.Reverse(), exact, err)
					return false
				}
				// Scribble over the scratch before comparing: N owns its storage.
				if _, err := tr.NeighborVector(p, src[0]); err != nil {
					t.Log(err)
					return false
				}
				for _, v := range src {
					phi, err := NewTraverser(g).NeighborVector(p, v)
					if err != nil {
						t.Log(err)
						return false
					}
					if want, got := phi.Dot(s), n.At(int32(v)); math.Float64bits(want) != math.Float64bits(got) {
						t.Logf("seed %d kernel %v path %v: N[%d] = %v, want Φ·S = %v", seed, k, p, v, got, want)
						return false
					}
				}
				if !sameBits(s, kept) {
					t.Logf("seed %d kernel %v: SeedVector wrote to its seed", seed, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// exact is only claimed for seeds that are non-negative integers below 2⁵³:
// a fraction or a negative weight voids the argument that nothing rounds, a
// seed at the bound fails the same guard the frontiers do, and a seed of the
// wrong type is an error.
func TestSeedVectorSeedDomain(t *testing.T) {
	g, ids := kernelGraph(t)
	author, _ := g.Schema().TypeByName("author")
	paper, _ := g.Schema().TypeByName("paper")
	apa := MustNew(author, paper, author)
	tr := NewTraverser(g)
	bg := context.Background()
	seed := func(x float64) sparse.Vector {
		return sparse.Vector{Idx: []int32{int32(ids["a1"]), int32(ids["a2"])}, Val: []float64{1, x}}
	}
	for _, x := range []float64{0.5, -1, maxExactCount, math.Inf(1), math.NaN()} {
		if s, exact, err := tr.SeedVector(bg, apa, seed(x)); err != nil || exact || !s.IsZero() {
			t.Fatalf("seed weight %v: SeedVector = (%v, exact=%v, %v), want (zero, false, nil)", x, s, exact, err)
		}
	}
	for _, hops := range []Path{apa, MustNew(author)} {
		want := sparse.Sum([]sparse.Vector{mustPhi(t, g, hops, ids["a1"]), mustPhi(t, g, hops, ids["a2"]).Scale(3)})
		if s, exact, err := tr.SeedVector(bg, hops, seed(3)); err != nil || !exact || !sameBits(s, want) {
			t.Fatalf("%v: SeedVector = (%v, exact=%v, %v), want %v", hops, s, exact, err, want)
		}
	}
	if s, exact, err := tr.SeedVector(bg, apa, sparse.Vector{}); err != nil || !exact || !s.IsZero() {
		t.Fatalf("empty seed: (%v, exact=%v, %v), want (zero, true, nil)", s, exact, err)
	}
	if _, _, err := tr.SeedVector(bg, apa, sparse.Vector{Idx: []int32{int32(ids["p1"])}, Val: []float64{1}}); err == nil {
		t.Fatal("a paper accepted as the seed of an author path")
	}
	if _, _, err := tr.SeedVector(bg, Path{}, seed(1)); err == nil {
		t.Fatal("zero path accepted")
	}
	// A seed over the whole source type is vouched for by the type's vertex
	// list, not vertex by vertex (seedWalk): its values are still checked, and
	// one foreign vertex after the run, or a source type the graph does not
	// have, is still the error it was.
	whole := sparse.Vector{}
	for _, v := range g.VerticesOfType(author) {
		whole.Idx, whole.Val = append(whole.Idx, int32(v)), append(whole.Val, 2)
	}
	var perVertex []sparse.Vector
	for _, v := range g.VerticesOfType(author) {
		perVertex = append(perVertex, mustPhi(t, g, apa, v).Scale(2))
	}
	if s, exact, err := tr.SeedVector(bg, apa, whole); err != nil || !exact || !sameBits(s, sparse.Sum(perVertex)) {
		t.Fatalf("whole-type seed: (%v, exact=%v, %v)", s, exact, err)
	}
	whole.Val[len(whole.Val)-1] = 0.5
	if s, exact, err := tr.SeedVector(bg, apa, whole); err != nil || exact || !s.IsZero() {
		t.Fatalf("whole-type seed with a fraction: (%v, exact=%v, %v), want (zero, false, nil)", s, exact, err)
	}
	whole.Val[len(whole.Val)-1] = 2
	whole.Idx, whole.Val = append(whole.Idx, int32(ids["p1"])), append(whole.Val, 1)
	if _, _, err := tr.SeedVector(bg, apa, whole); err == nil {
		t.Fatal("a paper accepted after a run of authors")
	}
	if _, _, err := tr.SeedVector(bg, MustNew(hin.TypeID(200), paper), sparse.Vector{Idx: []int32{-1}, Val: []float64{1}}); err == nil {
		t.Fatal("an out-of-range vertex accepted as the seed of a path whose source type the graph lacks")
	}
}

func mustPhi(t *testing.T, g *hin.Graph, p Path, v hin.VertexID) sparse.Vector {
	t.Helper()
	phi, err := NewTraverser(g).NeighborVector(p, v)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

// Visibility is NeighborVector(p, v).Norm2Sq() bit for bit under every
// kernel — it drains the same Φ into the traverser's hop scratch — and that
// scratch must not show through results handed out before or after it.
func TestQuickVisibilityMatchesNorm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparseGraph(r)
		for i := 0; i < 8; i++ {
			p := randomValidPath(r, g.Schema(), 6)
			if i == 0 {
				p = MustNew(p.Source())
			}
			for _, k := range []Kernel{KernelAuto, KernelDense, KernelMerge, KernelMap} {
				tr := NewTraverser(g)
				tr.SetKernel(k)
				for _, v := range g.VerticesOfType(p.Source()) {
					want := mustPhi(t, g, p, v)
					before, err := tr.NeighborVector(p, v)
					if err != nil {
						t.Log(err)
						return false
					}
					vis, err := tr.Visibility(p, v)
					if err != nil || math.Float64bits(vis) != math.Float64bits(want.Norm2Sq()) {
						t.Logf("seed %d kernel %v: Visibility(%v, %d) = (%v, %v), want %v", seed, k, p, v, vis, err, want.Norm2Sq())
						return false
					}
					after, err := tr.NeighborVector(p, v)
					if err != nil || !sameBits(before, want) || !sameBits(after, want) {
						t.Logf("seed %d kernel %v: Φ_%v(%d) changed around Visibility", seed, k, p, v)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A cold table fill is one Visibility per vertex: once the traverser's
// scratch has grown to the widest Φ it must allocate nothing, on the merge
// kernel (the singleton first hop) and the dense one (every later hop) alike.
func TestVisibilityAllocatesNothing(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1))) // types a, b, c, all linked
	tr := NewTraverser(g)
	for _, p := range []Path{MustNew(0, 1), MustNew(0, 1, 2), MustNew(0, 1, 0, 2, 1)} {
		src := g.VerticesOfType(p.Source())
		walk := func() {
			for _, v := range src {
				if _, err := tr.Visibility(p, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		walk() // warm-up: grow the hop buffers and the dense scratch
		if n := testing.AllocsPerRun(20, walk); n != 0 {
			t.Fatalf("%v: %v allocations per fill of %d vertices, want 0", p, n, len(src))
		}
	}
	if _, err := tr.Visibility(MustNew(1, 0), g.VerticesOfType(0)[0]); err == nil {
		t.Fatal("a vertex of type a accepted as the source of a path from b")
	}
	if counts := tr.KernelCounts(); counts.Merge == 0 || counts.Dense == 0 {
		t.Fatalf("kernel counts %+v: the fixture should reach both the merge and the dense kernel", counts)
	}
}
