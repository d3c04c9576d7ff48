package metapath

import (
	"fmt"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// Traverser materializes neighbor vectors Φ_P(v) by hop-by-hop frontier
// expansion over a graph. It owns reusable scratch space, so a single
// Traverser amortizes allocations across many vertices; it is not safe for
// concurrent use (create one per goroutine).
//
// Each hop runs through one of three expansion kernels — merge, dense or
// map — picked per hop by an adaptive heuristic (see kernel.go and the
// "Expansion kernels" section of DESIGN.md).
type Traverser struct {
	g   *hin.Graph
	acc *sparse.Accumulator
	// dense is the span-offset scratch for KernelDense, grown lazily to the
	// largest target-type ID span seen.
	dense *sparse.DenseAccumulator
	// cursors is the reusable row set for KernelMerge.
	cursors []mergeCursor
	// hops are the two ping-pong buffers NeighborVector writes the seed and
	// every intermediate frontier into; only the final Φ is allocated.
	hops [2]sparse.Vector
	// kernel forces a specific kernel when != KernelAuto.
	kernel Kernel
	counts KernelCounts
}

// NewTraverser creates a traverser over g.
func NewTraverser(g *hin.Graph) *Traverser {
	return &Traverser{g: g, acc: sparse.NewAccumulator(64)}
}

// Graph returns the traversed graph.
func (tr *Traverser) Graph() *hin.Graph { return tr.g }

// NeighborVector computes Φ_P(v) (Definition 7): coordinate u holds
// |π_P(v,u)|, the number of path instances of P from v to u, counting edge
// multiplicities multiplicatively along each route. The source vertex must
// have type P.Source().
func (tr *Traverser) NeighborVector(p Path, v hin.VertexID) (sparse.Vector, error) {
	if p.IsZero() {
		return sparse.Vector{}, fmt.Errorf("metapath: zero path")
	}
	if !tr.g.Valid(v) {
		return sparse.Vector{}, fmt.Errorf("metapath: vertex %d out of range", v)
	}
	if tr.g.Type(v) != p.Source() {
		return sparse.Vector{}, fmt.Errorf("metapath: vertex %d has type %s, path starts at %s",
			v, tr.g.Schema().TypeName(tr.g.Type(v)), tr.g.Schema().TypeName(p.Source()))
	}
	last := p.Hops() - 1
	if last < 0 {
		return sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}, nil
	}
	cur := sparse.Vector{Idx: append(tr.hops[0].Idx[:0], int32(v)), Val: append(tr.hops[0].Val[:0], 1)}
	tr.hops[0] = cur
	for hop := 0; hop < last; hop++ {
		// cur lives in hops[hop&1]; the other buffer holds a frontier that
		// is already consumed.
		b := &tr.hops[(hop+1)&1]
		cur = tr.expandInto(KernelAuto, cur, p.Type(hop+1), *b)
		if cur.IsZero() {
			return sparse.Vector{}, nil // empty frontier: Φ_P(v) is zero
		}
		if cap(cur.Idx) <= maxHopBuf {
			*b = cur // keep the (possibly grown) buffer for the next call
		}
	}
	return tr.expandInto(KernelAuto, cur, p.Type(last+1), sparse.Vector{}), nil
}

// Expand advances a weighted frontier one hop to the given neighbor type:
// out[u] = Σ_w frontier[w] · mult(w,u) over neighbors u of type next. The
// expansion kernel is chosen per hop (tiny frontiers merge sorted CSR rows
// directly; mid/dense frontiers scatter into a dense scratch; the map
// accumulator is the fallback for huge sparse types). Expand does not
// require the frontier to be sorted, only duplicate-free.
func (tr *Traverser) Expand(frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	return tr.ExpandWith(KernelAuto, frontier, next)
}

// ExpandWith is Expand with the kernel chosen by the caller — the hook the
// cost-based planner uses to pin a kernel per hop. KernelAuto defers to the
// adaptive heuristic (and to any SetKernel override). All kernels are
// bit-equal, so the choice affects speed only, never the vector.
func (tr *Traverser) ExpandWith(k Kernel, frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	return tr.expandInto(k, frontier, next, sparse.Vector{})
}

// expandInto is ExpandWith with an output buffer: the merge and dense
// kernels write the result into buf's storage when it has room, so the
// result may alias buf (and never aliases anything else the traverser
// owns). The zero buf always yields a freshly allocated vector — the only
// kind that may escape to a caller, a cache or an index.
func (tr *Traverser) expandInto(k Kernel, frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) sparse.Vector {
	if k == KernelAuto {
		k = tr.pick(frontier.NNZ(), next)
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
// potential for connectivity under feature path p (Section 5.1).
func (tr *Traverser) Visibility(p Path, v hin.VertexID) (float64, error) {
	phi, err := tr.NeighborVector(p, v)
	if err != nil {
		return 0, err
	}
	return phi.Norm2Sq(), nil
}
