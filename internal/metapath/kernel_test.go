package metapath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/sparse"
)

var forcedKernels = []Kernel{KernelMap, KernelDense, KernelMerge, KernelPull}

// expandAll runs one hop under every forced kernel plus auto and checks the
// results are bit-equal, returning the map-kernel result.
func expandAll(t *testing.T, g *hin.Graph, frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	t.Helper()
	tr := NewTraverser(g)
	tr.SetKernel(KernelMap)
	want := tr.Expand(frontier, next)
	for _, k := range []Kernel{KernelDense, KernelMerge, KernelPull, KernelAuto} {
		tr.SetKernel(k)
		if got := tr.Expand(frontier, next); !got.Equal(want) {
			t.Fatalf("kernel %v: Expand = %v, want %v (frontier %v)", k, got, want, frontier)
		}
	}
	return want
}

// kernelGraph is the deterministic two-author/one-paper fixture used by the
// cancellation and heuristic tests.
func kernelGraph(t *testing.T) (*hin.Graph, map[string]hin.VertexID) {
	t.Helper()
	s := hin.MustSchema("author", "paper")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	s.AllowLink(a, p)
	b := hin.NewBuilder(s)
	ids := map[string]hin.VertexID{
		"a1": b.MustAddVertex(a, "a1"),
		"a2": b.MustAddVertex(a, "a2"),
		"a3": b.MustAddVertex(a, "a3"),
		"p1": b.MustAddVertex(p, "p1"),
		"p2": b.MustAddVertex(p, "p2"),
	}
	b.MustAddEdge(ids["a1"], ids["p1"])
	b.MustAddEdge(ids["a2"], ids["p1"])
	b.MustAddEdge(ids["a2"], ids["p2"])
	b.MustAddEdge(ids["a3"], ids["p2"])
	return b.Build(), ids
}

func TestExpandKernelsZeroCancellation(t *testing.T) {
	g, ids := kernelGraph(t)
	p, _ := g.Schema().TypeByName("paper")
	// a1 and a2 share p1 with equal multiplicity; opposite weights cancel it
	// exactly, and every kernel must drop the coordinate.
	frontier := sparse.FromMap(map[int32]float64{
		int32(ids["a1"]): 1,
		int32(ids["a2"]): -1,
	})
	got := expandAll(t, g, frontier, p)
	want := sparse.FromMap(map[int32]float64{int32(ids["p2"]): -1})
	if !got.Equal(want) {
		t.Fatalf("cancellation result = %v, want %v", got, want)
	}
}

func TestExpandKernelsEmptyAndMissing(t *testing.T) {
	g, ids := kernelGraph(t)
	paper, _ := g.Schema().TypeByName("paper")
	if got := expandAll(t, g, sparse.Vector{}, paper); !got.IsZero() {
		t.Fatalf("empty frontier expanded to %v", got)
	}
	// A frontier whose vertices have no neighbors of the target type.
	author, _ := g.Schema().TypeByName("author")
	frontier := sparse.FromMap(map[int32]float64{int32(ids["a1"]): 2})
	if got := expandAll(t, g, frontier, author); !got.IsZero() {
		t.Fatalf("author->author frontier expanded to %v", got)
	}
}

func TestKernelHeuristic(t *testing.T) {
	g, ids := kernelGraph(t)
	paper, _ := g.Schema().TypeByName("paper")
	tr := NewTraverser(g)
	// Tiny frontier routes through the merge path.
	tiny := sparse.FromMap(map[int32]float64{int32(ids["a1"]): 1})
	tr.Expand(tiny, paper)
	if c := tr.KernelCounts(); c.Merge != 1 || c.Map != 0 || c.Dense != 0 || c.Pull != 0 {
		t.Fatalf("tiny frontier counts = %+v, want one merge", c)
	}
	// Forced kernels override the heuristic.
	tr.SetKernel(KernelMap)
	if k := tr.pick(tiny, paper); k != KernelMap {
		t.Fatalf("forced map, pick = %v", k)
	}

	// 256 sources × 512 targets, every source linked to 8 targets: 2 048
	// edges between the types.
	wide, srcs, dst := bipartite(t, 256, 512, 8)
	tr = NewTraverser(wide)
	front := func(n int) sparse.Vector {
		f := sparse.Vector{}
		for _, v := range srcs[:n] {
			f.Idx, f.Val = append(f.Idx, int32(v)), append(f.Val, 1)
		}
		return f
	}
	// Pull reads all 2 048 edges and 512 row heads; a frontier of n sources
	// pushes 8n edges, each worth pullEdgeGain pulled ones: the crossover is
	// the smallest n with 8n·pullEdgeGain ≥ 2 560.
	cross := (2048 + 512 + 8*pullEdgeGain - 1) / (8 * pullEdgeGain)
	for _, c := range []struct {
		n    int
		want Kernel
	}{
		{mergeMaxFrontier, KernelMerge},
		{mergeMaxFrontier + 1, KernelDense},
		{cross - 1, KernelDense},
		{cross, KernelPull},
		{256, KernelPull},
	} {
		if k := tr.pick(front(c.n), dst); k != c.want {
			t.Errorf("pick(%d of 256 sources) = %v, want %v", c.n, k, c.want)
		}
	}
	// Gathering a few targets costs their rows only, so it pays against far
	// smaller frontiers than gathering them all.
	if !tr.pullPays(front(8), dst, 16) || tr.pullPays(front(8), dst, 512) {
		t.Error("pullPays does not scale pull's cost with the targets gathered")
	}
	// A hop too small to matter stays pushed whatever its share: the whole
	// source type of kernelGraph is three authors over four edges.
	authors := sparse.FromMap(map[int32]float64{int32(ids["a1"]): 1, int32(ids["a2"]): 1, int32(ids["a3"]): 1})
	if NewTraverser(g).pullPays(authors, paper, 2) {
		t.Errorf("a hop of 4 edges pulled, floor %d", pullMinEdges)
	}
	// A kernel counts what ran: a frontier pull cannot take is pushed.
	tr.SetKernel(KernelPull)
	unsorted := sparse.Vector{Idx: []int32{int32(srcs[1]), int32(srcs[0])}, Val: []float64{1, 1}}
	tr.Expand(unsorted, dst)
	tr.Expand(front(2), dst)
	if c := tr.KernelCounts(); c.Dense != 1 || c.Pull != 1 {
		t.Fatalf("forced pull on an unsorted then a sorted frontier: counts %+v, want one dense, one pull", c)
	}
	// Merge scales one row; forced on two it scatters.
	tr.SetKernel(KernelMerge)
	tr.Expand(front(2), dst)
	tr.Expand(front(1), dst)
	if c := tr.KernelCounts(); c.Dense != 2 || c.Merge != 1 {
		t.Fatalf("forced merge on two rows then one: counts %+v, want a second dense and one merge", c)
	}
}

// Once its scratch and hop buffers have grown, a dense hop allocates nothing
// (either push body), and neither does a drain into a buffer with room: the
// allocation columns of the benchmarks, held where `go test ./...` sees them.
func TestWarmDenseHopAllocatesNothing(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		g, src, dst := unevenPair(t, 256, 512, 4, mixed)
		if g.Pair(src, dst).Unit == mixed {
			t.Fatalf("mixed=%v: pair Unit = %v", mixed, !mixed)
		}
		tr := NewTraverser(g)
		tr.SetKernel(KernelDense)
		frontier := sparse.Vector{}
		for i, v := range g.VerticesOfType(src)[:64] {
			frontier.Idx, frontier.Val = append(frontier.Idx, int32(v)), append(frontier.Val, float64(i%5+1))
		}
		want := tr.Expand(frontier, dst)
		tr.ExpandScratch(frontier, dst, 1) // grows the scratch and the slot
		var got sparse.Vector
		if n := testing.AllocsPerRun(50, func() { got = tr.ExpandScratch(frontier, dst, 1) }); n != 0 {
			t.Errorf("mixed=%v: a warm dense hop allocates %v times", mixed, n)
		}
		if c := tr.KernelCounts(); !sameBits(got, want) || c.Map+c.Merge+c.Pull != 0 {
			t.Errorf("mixed=%v: scratch hop = %v, want %v (counts %+v)", mixed, got, want, c)
		}
	}
	acc := sparse.NewDenseAccumulator(1 << 12)
	buf := sparse.Vector{Idx: make([]int32, 0, 64), Val: make([]float64, 0, 64)}
	if n := testing.AllocsPerRun(50, func() {
		for ix := int32(0); ix < 64; ix++ {
			acc.Add(ix*61, 1)
		}
		buf = acc.TakeInto(buf, 7)
	}); n != 0 || buf.NNZ() != 64 {
		t.Errorf("TakeInto a buffer with room allocates %v times, %d coordinates", n, buf.NNZ())
	}
}

// bipartite builds nSrc sources and nDst targets, source i linked to the deg
// targets i, i+1, … (mod nDst) with multiplicity 1 + i%3.
func bipartite(t testing.TB, nSrc, nDst, deg int) (*hin.Graph, []hin.VertexID, hin.TypeID) {
	t.Helper()
	s := hin.MustSchema("src", "dst")
	src, _ := s.TypeByName("src")
	dst, _ := s.TypeByName("dst")
	s.AllowLink(src, dst)
	b := hin.NewBuilder(s)
	srcs := make([]hin.VertexID, nSrc)
	dsts := make([]hin.VertexID, nDst)
	for i := range srcs {
		srcs[i] = b.MustAddVertex(src, fmt.Sprintf("s%d", i))
	}
	for i := range dsts {
		dsts[i] = b.MustAddVertex(dst, fmt.Sprintf("d%d", i))
	}
	for i, v := range srcs {
		for j := 0; j < deg; j++ {
			if err := b.AddEdgeMult(v, dsts[(i+j)%nDst], int32(1+i%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build(), srcs, dst
}

// randomFrontier draws a random weighted frontier over the vertices of a
// type: small integers of both signs, so sums cancel exactly; fractions
// across eighty binary orders of magnitude, whose sums round differently in
// every order they could be added in; or subnormals, whose products with a
// multiplicity round at the bottom of the range.
func randomFrontier(r *rand.Rand, g *hin.Graph, t hin.TypeID) sparse.Vector {
	vs := g.VerticesOfType(t)
	m := make(map[int32]float64)
	n := r.Intn(len(vs) + 1)
	mode := r.Intn(3)
	for i := 0; i < n; i++ {
		w := float64(r.Intn(9) - 4)
		switch mode {
		case 1:
			w = math.Ldexp(r.Float64()-0.5, r.Intn(80)-40)
		case 2:
			w = math.Ldexp(w, -1074+r.Intn(3))
		}
		if w != 0 {
			m[int32(vs[r.Intn(len(vs))])] = w
		}
	}
	return sparse.FromMap(m)
}

// interleavedGraph is a dense three-type multigraph whose types take turns
// receiving vertex IDs, so every type's ID span is wider than its count: the
// dense and pull scratches have holes that belong to other types.
func interleavedGraph(r *rand.Rand) *hin.Graph {
	s := hin.MustSchema("a", "b", "c")
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	s.AllowLink(0, 2)
	bld := hin.NewBuilder(s)
	vs := make([][]hin.VertexID, 3)
	for i := 0; i < 12+r.Intn(12); i++ {
		t := hin.TypeID(r.Intn(3))
		vs[t] = append(vs[t], bld.MustAddVertex(t, fmt.Sprintf("%d.%d", t, i)))
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		for _, x := range vs[pair[0]] {
			for _, y := range vs[pair[1]] {
				if r.Float64() < 0.5 {
					if err := bld.AddEdgeMult(x, y, int32(1+r.Intn(4))); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return bld.Build()
}

// lopsidedGraph puts type pairs on both sides of the pull kernel's crossover
// in one network: a few dozen a's against a handful of b's and c's, densely
// linked, so the rows of b and c toward a are long (a hop from a gathers them
// with a register sum per row) and the rows of a are short (a hop into a walks
// the entries flat). Types take turns receiving IDs; multiplicities are all 1
// (the flat body's shortcut) on every other draw, 1–maxMult otherwise.
func lopsidedGraph(r *rand.Rand, maxMult int) *hin.Graph {
	s := hin.MustSchema("a", "b", "c")
	s.AllowLink(0, 1)
	s.AllowLink(0, 2)
	s.AllowLink(1, 2)
	bld := hin.NewBuilder(s)
	left := []int{24 + r.Intn(16), 2 + r.Intn(2), 3 + r.Intn(4)}
	vs := make([][]hin.VertexID, 3)
	for left[0]+left[1]+left[2] > 0 {
		if t := r.Intn(3); left[t] > 0 {
			left[t]--
			vs[t] = append(vs[t], bld.MustAddVertex(hin.TypeID(t), fmt.Sprintf("%d.%d", t, left[t])))
		}
	}
	unit := r.Intn(2) == 0
	for _, link := range []struct {
		t, u    int
		density float64
	}{{0, 1, 0.8}, {0, 2, 0.5}, {1, 2, 0.6}} {
		for _, x := range vs[link.t] {
			for _, y := range vs[link.u] {
				if r.Float64() < link.density {
					m := int32(1)
					if !unit {
						m += int32(r.Intn(maxMult))
					}
					if err := bld.AddEdgeMult(x, y, m); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return bld.Build()
}

// pullBodies counts, per body of the pull kernel (the pair keeps Row or not)
// and per multiplicity shortcut (the pair is all ones or not), the hops a
// property test forced through it; all four must have run.
type pullBodies map[[2]bool]int

func (c pullBodies) saw(g *hin.Graph, from, to hin.TypeID) {
	if p := g.Pair(to, from); len(p.Nbr) > 0 {
		c[[2]bool{p.Row != nil, p.Unit}]++
	}
}

func (c pullBodies) check(t *testing.T) {
	t.Helper()
	if len(c) != 4 {
		t.Fatalf("pull bodies exercised ([flat, unit] → hops): %v, want all four", c)
	}
}

func TestQuickExpandKernelsAgree(t *testing.T) {
	bodies := pullBodies{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		switch uint64(seed) % 3 {
		case 1:
			g = interleavedGraph(r)
		case 2:
			g = lopsidedGraph(r, 4)
		}
		s := g.Schema()
		src := hin.TypeID(r.Intn(s.NumTypes()))
		nexts := s.AllowedFrom(src)
		if len(nexts) == 0 || g.NumVerticesOfType(src) == 0 {
			return true
		}
		next := nexts[r.Intn(len(nexts))]
		frontier := randomFrontier(r, g, src)
		if !frontier.IsZero() {
			bodies.saw(g, src, next)
		}
		tr := NewTraverser(g)
		tr.SetKernel(KernelMap)
		want := tr.Expand(frontier, next)
		for _, k := range []Kernel{KernelDense, KernelMerge, KernelPull, KernelAuto} {
			tr.SetKernel(k)
			// Twice: the second pull finds the scratch the first left behind.
			for rep := 0; rep < 2; rep++ {
				if got := tr.Expand(frontier, next); !sameBits(got, want) {
					t.Logf("seed %d kernel %v: Expand = %v, want %v (frontier %v)", seed, k, got, want, frontier)
					return false
				}
			}
		}
		if !frontier.IsZero() && tr.KernelCounts().Pull == 0 {
			t.Logf("seed %d: the forced pull never ran on %v", seed, frontier)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	bodies.check(t)
}

// Multi-hop NeighborVector must be kernel-independent too: hop sizes cross
// the merge/dense crossover mid-path under KernelAuto.
func TestQuickNeighborVectorKernelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		p := randomValidPath(r, g.Schema(), 4)
		src := g.VerticesOfType(p.Source())
		if len(src) == 0 {
			return true
		}
		v := src[r.Intn(len(src))]
		var want sparse.Vector
		for i, k := range []Kernel{KernelMap, KernelDense, KernelMerge, KernelPull, KernelAuto} {
			tr := NewTraverser(g)
			tr.SetKernel(k)
			phi, err := tr.NeighborVector(p, v)
			if err != nil {
				return false
			}
			if i == 0 {
				want = phi
			} else if !phi.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpandSetKernelsAgree(t *testing.T) {
	bodies := pullBodies{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		if seed&1 == 1 {
			g = lopsidedGraph(r, 4)
		}
		s := g.Schema()
		src := hin.TypeID(r.Intn(s.NumTypes()))
		nexts := s.AllowedFrom(src)
		if len(nexts) == 0 {
			return true
		}
		next := nexts[r.Intn(len(nexts))]
		vs := g.VerticesOfType(src)
		set := make([]hin.VertexID, 0, len(vs))
		for _, v := range vs {
			if r.Float64() < 0.5 {
				set = append(set, v)
			}
		}
		if len(set) > 0 {
			bodies.saw(g, src, next)
		}
		var want []hin.VertexID
		for i, k := range forcedKernels {
			tr := NewTraverser(g)
			tr.SetKernel(k)
			got := tr.ExpandSet(set, next)
			if i == 0 {
				want = got
				continue
			}
			if len(got) != len(want) {
				return false
			}
			for j := range got {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	bodies.check(t)
}

// FuzzExpandKernels decodes arbitrary bytes into a tiny two-type network, a
// frontier and a hop direction, then asserts the four kernels agree
// bit-for-bit. The two types take turns receiving vertex IDs (each type's
// span has the other's vertices as holes), weights are thirds of both signs
// (sums round, opposite weights still cancel exactly), scaled by a byte of the
// input into the subnormals or up by 2⁴⁰, and repeated edges raise
// multiplicities. The seed corpus covers the structural edges: empty
// frontier, single row, duplicate-free fan-in, cancellation, self-type hops
// with no allowed neighbors, and both bodies of the pull kernel — eight a's on
// one b make that b's row long (gathered by a register sum) and the a's rows
// short (walked flat), with all multiplicities 1 and with repeats.
func FuzzExpandKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0, 0, 1, 1, 2, 3, 0, 1})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})                   // single row, repeated edge (multiplicity)
	f.Add([]byte{2, 1, 0, 0, 1, 0, 0, 1, 1, 255})           // two rows into one paper: cancellation candidates
	f.Add([]byte{8, 8, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4}) // wider fan
	f.Add([]byte{7, 0, 8, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 3, 0, 200, 1, 100, 2, 50, 1})
	f.Add([]byte{7, 0, 12, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 0, 0, 0, 0, 5, 0, 6, 0, 4, 7, 129, 1, 127, 2, 3, 5, 90, 0})
	// The dense kernel's two push bodies: every edge once (all multiplicities
	// 1, the unit body), and the same graph with one edge repeated.
	f.Add([]byte{2, 3, 4, 0, 0, 1, 1, 2, 2, 0, 3, 3, 0, 131, 1, 125, 2, 140, 0, 0, 1, 1, 2, 3, 3})
	f.Add([]byte{2, 3, 5, 0, 0, 0, 0, 1, 1, 2, 2, 0, 3, 3, 0, 131, 1, 125, 2, 140, 0, 0, 1, 1, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		pop := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		s := hin.MustSchema("a", "b")
		ta, _ := s.TypeByName("a")
		tb, _ := s.TypeByName("b")
		s.AllowLink(ta, tb)
		nA := int(pop()%8) + 1
		nB := int(pop()%8) + 1
		bld := hin.NewBuilder(s)
		as := make([]hin.VertexID, nA)
		bs := make([]hin.VertexID, nB)
		for i := 0; i < max(nA, nB); i++ {
			if i < nA {
				as[i] = bld.MustAddVertex(ta, fmt.Sprintf("a%d", i))
			}
			if i < nB {
				bs[i] = bld.MustAddVertex(tb, fmt.Sprintf("b%d", i))
			}
		}
		nEdges := int(pop() % 32)
		for i := 0; i < nEdges; i++ {
			x := as[int(pop())%nA]
			y := bs[int(pop())%nB]
			bld.MustAddEdge(x, y) // repeats raise multiplicity
		}
		g := bld.Build()
		m := make(map[int32]float64)
		nFront := int(pop() % 8)
		for i := 0; i < nFront; i++ {
			v := as[int(pop())%nA]
			w := float64(int(pop())-128) / 3
			if w != 0 {
				m[int32(v)] = w
			}
		}
		frontier := sparse.FromMap(m)
		frontier = frontier.Scale(math.Ldexp(1, []int{0, -1070, 40, -1030}[pop()%4]))
		tr := NewTraverser(g)
		tr.SetKernel(KernelMap)
		want := tr.Expand(frontier, tb)
		for _, k := range []Kernel{KernelDense, KernelMerge, KernelPull, KernelAuto} {
			tr.SetKernel(k)
			if got := tr.Expand(frontier, tb); !sameBits(got, want) {
				t.Fatalf("kernel %v: Expand = %v, want %v (frontier %v, graph %d/%d)",
					k, got, want, frontier, nA, nB)
			}
		}
		// The hop with no vertices of the target type in range: expand the
		// B frontier back to A as well.
		mB := make(map[int32]float64)
		for i := 0; i < nFront; i++ {
			mB[int32(bs[int(pop())%nB])] = float64(int(pop())%16) + 1
		}
		back := sparse.FromMap(mB)
		tr.SetKernel(KernelMap)
		wantBack := tr.Expand(back, ta)
		for _, k := range []Kernel{KernelDense, KernelMerge, KernelPull, KernelAuto} {
			tr.SetKernel(k)
			if got := tr.Expand(back, ta); !sameBits(got, wantBack) {
				t.Fatalf("kernel %v (reverse): Expand = %v, want %v", k, got, wantBack)
			}
		}
	})
}

// expandChain is NeighborVector as it was before the hop buffers: every hop
// a freshly allocated Expand result. The reference the scratch-owned
// implementation must match bit for bit.
func expandChain(tr *Traverser, p Path, v hin.VertexID) sparse.Vector {
	cur := sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}
	for hop := 0; hop < p.Hops() && !cur.IsZero(); hop++ {
		cur = tr.Expand(cur, p.Type(hop+1))
	}
	return cur
}

// A returned Φ must own its storage: later NeighborVector calls on the same
// traverser recycle the hop buffers, and none of that may show through a
// vector handed out earlier (under any kernel, at any path length).
func TestQuickNeighborVectorDoesNotAliasScratch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		for _, k := range []Kernel{KernelAuto, KernelDense, KernelMerge, KernelPull, KernelMap} {
			tr, ref := NewTraverser(g), NewTraverser(g)
			tr.SetKernel(k)
			var got, want []sparse.Vector
			for i := 0; i < 12; i++ {
				p := randomValidPath(r, g.Schema(), 5)
				src := g.VerticesOfType(p.Source())
				if len(src) == 0 {
					continue
				}
				v := src[r.Intn(len(src))]
				phi, err := tr.NeighborVector(p, v)
				if err != nil {
					return false
				}
				got = append(got, phi)
				want = append(want, expandChain(ref, p, v))
			}
			// Compare only after every call has had its chance to scribble.
			for i := range got {
				if !got[i].Equal(want[i]) || len(got[i].Val) != len(want[i].Val) {
					t.Logf("seed %d kernel %v call %d: Φ = %v, want %v", seed, k, i, got[i], want[i])
					return false
				}
				for _, b := range tr.hops {
					if len(got[i].Idx) > 0 && cap(b.Idx) > 0 && &got[i].Idx[0] == &b.Idx[:1][0] {
						t.Logf("seed %d kernel %v call %d: Φ shares a hop buffer", seed, k, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// One wide query must not pin its hop buffer: an intermediate frontier past
// maxHopBuf gets a one-off buffer and the traverser keeps what it had.
func TestHopBufferRetentionBounded(t *testing.T) {
	s := hin.MustSchema("hub", "leaf")
	hub, _ := s.TypeByName("hub")
	leaf, _ := s.TypeByName("leaf")
	s.AllowLink(hub, leaf)
	b := hin.NewBuilder(s)
	h := b.MustAddVertex(hub, "h")
	small := b.MustAddVertex(hub, "small")
	for i := 0; i < maxHopBuf+10; i++ {
		l := b.MustAddVertex(leaf, fmt.Sprintf("l%d", i))
		b.MustAddEdge(h, l)
		if i < 3 {
			b.MustAddEdge(small, l)
		}
	}
	g := b.Build()
	p := MustNew(hub, leaf, hub)
	tr := NewTraverser(g)
	// Narrow call first: its 3-leaf frontier is kept.
	if _, err := tr.NeighborVector(p, small); err != nil {
		t.Fatal(err)
	}
	kept := cap(tr.hops[1].Idx)
	if kept == 0 || kept > maxHopBuf {
		t.Fatalf("narrow frontier buffer cap = %d", kept)
	}
	phi, err := tr.NeighborVector(p, h)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(maxHopBuf + 10); phi.At(int32(h)) != want || phi.At(int32(small)) != 3 {
		t.Fatalf("Φ(h) = %v", phi)
	}
	for i, buf := range tr.hops {
		if cap(buf.Idx) > maxHopBuf || cap(buf.Val) > maxHopBuf {
			t.Fatalf("hop buffer %d retained %d coordinates, bound %d", i, cap(buf.Idx), maxHopBuf)
		}
	}
}

// A zero-hop path's Φ is the seed itself — freshly allocated, not the seed
// buffer the traverser recycles.
func TestNeighborVectorZeroHops(t *testing.T) {
	g, ids := kernelGraph(t)
	author, _ := g.Schema().TypeByName("author")
	tr := NewTraverser(g)
	first, err := tr.NeighborVector(MustNew(author), ids["a1"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.NeighborVector(MustNew(author), ids["a2"]); err != nil {
		t.Fatal(err)
	}
	if want := sparse.FromMap(map[int32]float64{int32(ids["a1"]): 1}); !first.Equal(want) {
		t.Fatalf("Φ = %v, want %v", first, want)
	}
}
