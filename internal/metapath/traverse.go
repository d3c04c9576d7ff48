package metapath

import (
	"context"
	"errors"
	"fmt"
	"math"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// Traverser materializes neighbor vectors Φ_P(v) by hop-by-hop frontier
// expansion over a graph. It owns reusable scratch space, so a single
// Traverser amortizes allocations across many vertices; it is not safe for
// concurrent use (create one per goroutine).
//
// Each hop runs through one of four expansion kernels — merge, pull, dense or
// map — picked per hop by an adaptive heuristic (see kernel.go and the
// "Expansion kernels" section of DESIGN.md).
type Traverser struct {
	g   *hin.Graph
	acc *sparse.Accumulator
	// dense is the span-offset scratch for KernelDense, grown lazily to the
	// largest target-type ID span seen.
	dense sparse.DenseAccumulator
	// unitInto[t]: every edge into type t has multiplicity 1, whatever type
	// it comes from (a frontier may mix types).
	unitInto []bool
	// in is KernelPull's scratch, all zero between hops: the frontier scattered
	// over its own type's ID span, grown lazily to the widest type pulled
	// from. spare is where a pull gathers a result it will hand out fresh.
	in    []float64
	spare sparse.Vector
	// hops are the two ping-pong buffers every walk writes the seed and each
	// intermediate frontier into; only the final vector is allocated
	// (Visibility drains that one into them too).
	hops [2]sparse.Vector
	// kernel forces a specific kernel when != KernelAuto.
	kernel Kernel
	counts KernelCounts
}

// NewTraverser creates a traverser over g.
func NewTraverser(g *hin.Graph) *Traverser {
	nt := g.Schema().NumTypes()
	tr := &Traverser{g: g, acc: sparse.NewAccumulator(64), unitInto: make([]bool, nt)}
	for t := range tr.unitInto {
		tr.unitInto[t] = true
		for from := 0; from < nt; from++ {
			tr.unitInto[t] = tr.unitInto[t] && g.Pair(hin.TypeID(from), hin.TypeID(t)).Unit
		}
	}
	return tr
}

// Graph returns the traversed graph.
func (tr *Traverser) Graph() *hin.Graph { return tr.g }

// NeighborVector computes Φ_P(v) (Definition 7): coordinate u holds
// |π_P(v,u)|, the number of path instances of P from v to u, counting edge
// multiplicities multiplicatively along each route. The source vertex must
// have type P.Source().
func (tr *Traverser) NeighborVector(p Path, v hin.VertexID) (sparse.Vector, error) {
	if err := CheckSource(tr.g, p, v); err != nil {
		return sparse.Vector{}, err
	}
	if p.Hops() == 0 {
		return sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}, nil
	}
	return tr.expandPath(p, p.Hops(), tr.unitSeed(v), nil, false)
}

// unitSeed writes the one-vertex seed frontier of a walk from v into
// hops[0].
func (tr *Traverser) unitSeed(v hin.VertexID) sparse.Vector {
	tr.hops[0] = sparse.Vector{Idx: append(tr.hops[0].Idx[:0], int32(v)), Val: append(tr.hops[0].Val[:0], 1)}
	return tr.hops[0]
}

// CheckSource reports why v cannot start a walk along p in g (nil when it
// can): the zero path, a vertex outside g, or one of another type than p's
// source. It is the source validation of every materializer, and allocates
// nothing on success.
func CheckSource(g *hin.Graph, p Path, v hin.VertexID) error {
	if p.IsZero() {
		return errZeroPath
	}
	if !g.Valid(v) {
		return fmt.Errorf("metapath: vertex %d out of range", v)
	}
	if g.Type(v) != p.Source() {
		return fmt.Errorf("metapath: vertex %d has type %s, path starts at %s",
			v, g.Schema().TypeName(g.Type(v)), g.Schema().TypeName(p.Source()))
	}
	return nil
}

var errZeroPath = errors.New("metapath: zero path")

// expandPath expands the seed frontier cur — in hops[0], or storage the
// caller owns and the walk only reads — along the first hops hops of p (at
// least one). Intermediate frontiers ping-pong between the two hop buffers.
// The final vector is freshly allocated unless scratch is set: then it is
// drained into hops[hops&1], the buffer the walk has just finished with, and
// is valid only until the traverser's next call. step, when non-nil, sees
// each frontier before it is expanded, and an error from it ends the walk.
func (tr *Traverser) expandPath(p Path, hops int, cur sparse.Vector, step func(sparse.Vector) error, scratch bool) (sparse.Vector, error) {
	last := hops - 1
	for hop := 0; ; hop++ {
		if step != nil {
			if err := step(cur); err != nil {
				return sparse.Vector{}, err
			}
		}
		if hop == last && !scratch {
			return tr.expandInto(KernelAuto, cur, p.Type(last+1), sparse.Vector{}), nil
		}
		// cur lives in hops[hop&1] (or, at hop 0, outside the traverser); the
		// other buffer holds a frontier that is already consumed.
		b := &tr.hops[(hop+1)&1]
		cur = tr.expandInto(KernelAuto, cur, p.Type(hop+1), *b)
		if cur.IsZero() {
			return sparse.Vector{}, nil // empty frontier: the result is zero
		}
		if cap(cur.Idx) <= maxHopBuf {
			*b = cur // keep the (possibly grown) buffer for the next call
		}
		if hop == last {
			return cur, nil
		}
	}
}

// maxExactCount is 2⁵³: every non-negative integer below it is a float64,
// and sums of such integers that stay below it are exact in any order.
const maxExactCount = 1 << 53

// errInexact ends a SeedVector walk whose counts left that domain.
var errInexact = errors.New("metapath: path count reached 2^53")

// SetVector computes Σ_{v∈set} Φ_P(v) with ONE frontier propagation seeded
// with weight 1 on every vertex of set (ascending, duplicate-free, all of
// type P.Source()) instead of |set| traversals: path counting is linear in
// the seed. Hop h scatters each row of the union frontier once, where the
// per-vertex walks scatter it once per vertex that reaches it, and drains
// once instead of |set| times, so the propagation never does more work than
// they do. It is SeedVector on the unit seed, and exact means what it means
// there: s is then Float64bits-identical to sparse.Sum over the per-vertex
// vectors in any order.
func (tr *Traverser) SetVector(ctx context.Context, p Path, set []hin.VertexID) (s sparse.Vector, exact bool, err error) {
	seed := outVector(tr.hops[0], len(set))
	for _, v := range set {
		seed.Idx = append(seed.Idx, int32(v))
		seed.Val = append(seed.Val, 1)
	}
	if cap(seed.Idx) <= maxHopBuf {
		tr.hops[0] = seed
	}
	return tr.SeedVector(ctx, p, seed)
}

// SeedVector computes Σ_u seed[u]·Φ_P(u) with one frontier propagation from
// the weighted seed (duplicate-free coordinates, all vertices of type
// P.Source(); only read). Edges are symmetric, so along P.Reverse() it is
// the product M_P·seed: seeded with S = Σ_{vj∈Sr} Φ_P(vj) it yields Φ_P(v)·S
// for every v of P's source type at once.
//
// exact reports that the seed held non-negative integers and every count on
// the way stayed below 2⁵³. Multiplicities are positive integers, so every
// value is then an exactly represented integer and nothing was rounded: s is
// the true count vector, whatever order a per-vertex computation of the same
// sums would add them in. Otherwise s is zero and the caller must compute per
// vertex. The context is checked before every hop; like NeighborVector's,
// the result is freshly allocated.
func (tr *Traverser) SeedVector(ctx context.Context, p Path, seed sparse.Vector) (s sparse.Vector, exact bool, err error) {
	return tr.seedWalk(ctx, p, p.Hops(), seed, false)
}

// SeedValues is SeedVector read at the vertices at: vals[i] is coordinate
// at[i] of SeedVector(p, seed), 0 for a vertex that is not of type
// P.Target(), whatever at's order. Where pulling pays the last hop is gathered
// at those vertices only (gatherAt), so it costs their adjacency rows, not
// the type's. exact is SeedVector's for the seed and every frontier on the
// way, and answers for the values returned only: a count past 2⁵³ at a vertex
// that was not asked for voids nothing. vals is nil unless exact.
func (tr *Traverser) SeedValues(ctx context.Context, p Path, seed sparse.Vector, at []hin.VertexID) (vals []float64, exact bool, err error) {
	// The frontier before the last hop (the seed itself on a one-hop path),
	// in hop scratch and checked against 2⁵³ like every frontier.
	hops := max(p.Hops()-1, 0)
	frontier, exact, err := tr.seedWalk(ctx, p, hops, seed, true)
	if !exact || err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	vals = make([]float64, len(at))
	if frontier.IsZero() {
		return vals, true, nil // nothing reaches the last hop
	}
	if p.Hops() == 0 || !tr.gatherAt(frontier, p.Target(), at, vals) {
		full := frontier // zero hops: the values are the seed's
		if p.Hops() > 0 {
			// Finish the walk by pushing, and look the vertices up.
			full = tr.expandInto(KernelAuto, frontier, p.Target(), tr.hops[(hops+1)&1])
		}
		for i, v := range at {
			vals[i] = full.At(int32(v))
		}
	}
	for _, x := range vals {
		if x >= maxExactCount {
			return nil, false, nil
		}
	}
	return vals, true, nil
}

// seedWalk validates the seed of SeedVector and propagates it along the
// first hops hops of p, checking the context and the 2⁵³ domain before every
// hop and on the result. With scratch the result lives in hop scratch (or,
// for zero hops, is the seed itself).
func (tr *Traverser) seedWalk(ctx context.Context, p Path, hops int, seed sparse.Vector, scratch bool) (s sparse.Vector, exact bool, err error) {
	if p.IsZero() {
		return sparse.Vector{}, false, errZeroPath
	}
	// A seed that is a run of the source type's vertex list — a whole-type
	// reference set — needs no check per vertex: the list vouches for all. (A
	// path off the wire may name a type the graph lacks; CheckSource says so.)
	var listed bool
	if t := p.Source(); int(t) < tr.g.Schema().NumTypes() {
		_, listed = runOf(tr.g.VerticesOfType(t), seed.Idx)
	}
	for i, ix := range seed.Idx {
		if !listed {
			if err := CheckSource(tr.g, p, hin.VertexID(ix)); err != nil {
				return sparse.Vector{}, false, err
			}
		}
		if x := seed.Val[i]; !(x >= 0 && x == math.Trunc(x)) {
			return sparse.Vector{}, false, nil
		}
	}
	inDomain := func(frontier sparse.Vector) error {
		for _, x := range frontier.Val {
			if x >= maxExactCount {
				return errInexact
			}
		}
		return nil
	}
	switch {
	case seed.IsZero():
		return sparse.Vector{}, true, nil
	case hops == 0 && scratch:
		s, err = seed, inDomain(seed)
	case hops == 0:
		s, err = seed.Clone(), inDomain(seed)
	default:
		s, err = tr.expandPath(p, hops, seed, func(frontier sparse.Vector) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return inDomain(frontier)
		}, scratch)
		if err == nil {
			err = inDomain(s)
		}
	}
	switch {
	case err == errInexact:
		return sparse.Vector{}, false, nil
	case err != nil:
		return sparse.Vector{}, false, err
	}
	return s, true, nil
}

// Expand advances a weighted frontier one hop to the given neighbor type:
// out[u] = Σ_w frontier[w] · mult(w,u) over neighbors u of type next. The
// expansion kernel is chosen per hop (a one-vertex frontier scales its sorted
// CSR row; a frontier that is most of its type is gathered by the target
// type's rows; others scatter into a dense scratch; the map accumulator is
// the fallback for huge sparse types). All kernels are bit-equal, so the
// choice affects speed only, never the vector. Expand does not require the
// frontier to be sorted, only duplicate-free.
func (tr *Traverser) Expand(frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	return tr.expandInto(KernelAuto, frontier, next, sparse.Vector{})
}

// ExpandScratch is Expand for a frontier the caller will not keep: the
// result lives in hop buffer slot (0 or 1) and is valid until that slot is
// written again — by this method or by any walk (NeighborVector, SetVector,
// SeedVector, SeedValues, Visibility). The frontier may live in
// the other slot, so a caller walking hop by hop alternates slots and
// allocates nothing once the buffers have grown.
func (tr *Traverser) ExpandScratch(frontier sparse.Vector, next hin.TypeID, slot int) sparse.Vector {
	b := &tr.hops[slot&1]
	out := tr.expandInto(KernelAuto, frontier, next, *b)
	if cap(out.Idx) > 0 && cap(out.Idx) <= maxHopBuf {
		*b = out // keep the (possibly grown) buffer
	}
	return out
}

// Combine returns Σ_i frontier.Val[i]·suffix(frontier.Idx[i]): Section 6.2's
// decomposition Φ_{P1·P2}(v) = Σ_j |π_P1(v,vj)|·Φ_P2(vj), with frontier the
// vector Φ_P1(v) and suffix(vj) the vector Φ_P2(vj), whose coordinates are
// vertices of type target. The sums are scattered into the scratch the push
// kernels use — the dense one offset by target's ID span, the map one past
// MaxDenseSpan or when KernelMap is forced; the result is freshly allocated
// at the size of its non-zeros. suffix must not use the traverser.
//
// exact reports that every coordinate of the result is below 2⁵³. All terms
// are non-negative, so every product and partial sum is bounded by the
// coordinate it ends in: below 2⁵³ each was an exactly represented integer
// and nothing was rounded — and walking P1·P2 hop by hop from v adds up the
// same integers under the same bound, so the result is Float64bits-identical
// to NeighborVector's (SeedVector's argument). Otherwise the vector must not
// be used.
func (tr *Traverser) Combine(frontier sparse.Vector, suffix func(hin.VertexID) sparse.Vector, target hin.TypeID) (out sparse.Vector, exact bool) {
	lo, hi, ok := tr.g.TypeIDSpan(target)
	if !ok {
		return sparse.Vector{}, true // no vertex of the target type: Φ is zero
	}
	if tr.kernel == KernelMap || int64(hi)-int64(lo) >= MaxDenseSpan {
		for i, u := range frontier.Idx {
			w, vec := frontier.Val[i], suffix(hin.VertexID(u))
			for k, ix := range vec.Idx {
				tr.acc.Add(ix, w*vec.Val[k])
			}
		}
		out = tr.acc.Take()
	} else {
		acc, base := &tr.dense, int32(lo)
		acc.Grow(int(hi) - int(lo) + 1)
		for i, u := range frontier.Idx {
			w, vec := frontier.Val[i], suffix(hin.VertexID(u))
			for k, ix := range vec.Idx {
				acc.Add(ix-base, w*vec.Val[k])
			}
		}
		out = acc.TakeInto(sparse.Vector{}, base)
	}
	for _, x := range out.Val {
		if !(x < maxExactCount) { // an overflow to +Inf fails too
			return out, false
		}
	}
	return out, true
}

// expandInto is Expand with a kernel of the caller's choice and an output
// buffer: the merge, pull and dense kernels write the result into buf's
// storage when it has room, so the result may alias buf (and never aliases
// anything else the traverser owns). The zero buf always yields a freshly
// allocated vector — the only kind that may escape to a caller, a cache or an
// index.
func (tr *Traverser) expandInto(k Kernel, frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) sparse.Vector {
	if k == KernelAuto {
		k = tr.pick(frontier, next)
	}
	if k == KernelPull {
		if out, ok := tr.expandPull(frontier, next, buf); ok {
			return out
		}
		k = tr.pickPush(next)
	}
	if k == KernelMerge && frontier.NNZ() > mergeMaxFrontier {
		k = tr.pickPush(next) // merge only scales one row
	}
	switch k {
	case KernelMerge:
		return tr.expandMerge(frontier, next, buf)
	case KernelDense:
		return tr.expandDense(frontier, next, buf)
	default:
		return tr.expandMap(frontier, next)
	}
}

// CountInstances returns |π_P(vi,vj)|, the number of instances of P
// connecting vi to vj (Definition 5).
func (tr *Traverser) CountInstances(p Path, vi, vj hin.VertexID) (float64, error) {
	phi, err := tr.NeighborVector(p, vi)
	if err != nil {
		return 0, err
	}
	return phi.At(int32(vj)), nil
}

// Neighborhood returns N_P(vi) = {vj : π_P(vi,vj) ≠ ∅} (Definition 6), in
// ascending vertex order.
func (tr *Traverser) Neighborhood(p Path, v hin.VertexID) ([]hin.VertexID, error) {
	phi, err := tr.NeighborVector(p, v)
	if err != nil {
		return nil, err
	}
	out := make([]hin.VertexID, len(phi.Idx))
	for i, ix := range phi.Idx {
		out[i] = hin.VertexID(ix)
	}
	return out, nil
}

// ExpandSet advances a set of vertices one hop to the given neighbor type,
// returning the distinct neighbors (set semantics, no counts). Used by the
// query engine to resolve candidate/reference set chains.
func (tr *Traverser) ExpandSet(set []hin.VertexID, next hin.TypeID) []hin.VertexID {
	// Run the adaptive kernels on a weight-1 frontier and keep the index
	// list: counts are all positive, so no coordinate can cancel and the
	// output indices are exactly the distinct neighbors.
	idx := make([]int32, len(set))
	val := make([]float64, len(set))
	for i, v := range set {
		idx[i] = int32(v)
		val[i] = 1
	}
	vec := tr.Expand(sparse.Vector{Idx: idx, Val: val}, next)
	out := make([]hin.VertexID, len(vec.Idx))
	for i, ix := range vec.Idx {
		out[i] = hin.VertexID(ix)
	}
	return out
}

// Visibility returns κ(v,v) = |π_{PP⁻¹}(v,v)| = ‖Φ_P(v)‖₂², the vertex's
// potential for connectivity under feature path p (Section 5.1). It is
// NeighborVector(p, v).Norm2Sq() bit for bit — the same walk through the same
// kernels — with Φ drained into the traverser's hop scratch instead of a
// fresh vector, so a warmed-up traverser allocates nothing.
func (tr *Traverser) Visibility(p Path, v hin.VertexID) (float64, error) {
	if err := CheckSource(tr.g, p, v); err != nil {
		return 0, err
	}
	if p.Hops() == 0 {
		return 1, nil
	}
	phi, _ := tr.expandPath(p, p.Hops(), tr.unitSeed(v), nil, true) // no step, no error
	return phi.Norm2Sq(), nil
}
