package metapath

import (
	"netout/internal/hin"
	"netout/internal/sparse"
)

// Kernel selects the frontier-expansion algorithm a Traverser uses for one
// hop of Φ_P materialization. The default, KernelAuto, picks per hop from
// the frontier's NNZ and the target type's vertex-ID span; forcing a kernel
// is for benchmarks and equivalence tests. All kernels produce bit-equal
// sorted vectors (property- and fuzz-tested).
type Kernel int

const (
	// KernelAuto picks merge, dense or map per hop (the default).
	KernelAuto Kernel = iota
	// KernelMap scatters into the map-backed Accumulator: unbounded
	// coordinate space, one hash per scattered edge. The fallback.
	KernelMap
	// KernelDense scatters into a dense scratch sized to the target type's
	// ID span with a touched list: hash-free adds, and a drain that scans
	// the touched range when it is dense and sorts the list when it is not.
	KernelDense
	// KernelMerge k-way-merges the already-sorted CSR adjacency rows
	// directly into a sorted vector, touching no scratch at all. Only
	// sensible for tiny frontiers (the scan over row heads is linear in k).
	KernelMerge
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelMap:
		return "map"
	case KernelDense:
		return "dense"
	case KernelMerge:
		return "merge"
	}
	return "Kernel(?)"
}

// Crossover constants for KernelAuto, calibrated with BenchmarkExpand (see
// DESIGN.md "Expansion kernels"): the merge path wins while the head scan
// over frontier rows stays trivially small; the dense scratch wins over the
// map at every frontier size but is capped so a traverser never pins more
// than ~32 MiB of scratch per hop on huge vertex types.
const (
	// MergeMaxFrontier is the largest frontier NNZ the merge path accepts.
	MergeMaxFrontier = 4
	// MaxDenseSpan is the largest target-type ID span (entries, 8 B each)
	// the dense kernel will allocate scratch for.
	MaxDenseSpan = sparse.MaxDenseSpan
	// maxHopBuf is the largest intermediate-frontier buffer (coordinates,
	// 12 B each: 3 MiB) a traverser keeps between NeighborVector calls; a
	// wider hop gets a one-off buffer, so one wide query cannot pin memory
	// for the life of a serving process.
	maxHopBuf = 1 << 18
)

// KernelCounts reports how many hops each kernel expanded, for heuristic
// observability and tests.
type KernelCounts struct {
	Map, Dense, Merge uint64
}

// Add returns the sum c + o, for aggregating per-view deltas.
func (c KernelCounts) Add(o KernelCounts) KernelCounts {
	return KernelCounts{Map: c.Map + o.Map, Dense: c.Dense + o.Dense, Merge: c.Merge + o.Merge}
}

// Sub returns the difference c - o, for snapshot-style interval measurement.
func (c KernelCounts) Sub(o KernelCounts) KernelCounts {
	return KernelCounts{Map: c.Map - o.Map, Dense: c.Dense - o.Dense, Merge: c.Merge - o.Merge}
}

// SetKernel forces the expansion kernel (KernelAuto restores the adaptive
// heuristic). For benchmarks and equivalence tests.
func (tr *Traverser) SetKernel(k Kernel) { tr.kernel = k }

// KernelCounts returns how many hops each kernel has expanded so far.
func (tr *Traverser) KernelCounts() KernelCounts { return tr.counts }

// pick chooses the kernel for one hop: merge for tiny frontiers, dense when
// the target type's ID span affords a scratch array, map otherwise.
func (tr *Traverser) pick(nnz int, next hin.TypeID) Kernel {
	if tr.kernel != KernelAuto {
		return tr.kernel
	}
	if nnz <= MergeMaxFrontier {
		return KernelMerge
	}
	if lo, hi, ok := tr.g.TypeIDSpan(next); ok && int64(hi)-int64(lo) < MaxDenseSpan {
		return KernelDense
	}
	return KernelMap
}

// expandMap is the fallback kernel: scatter through the map accumulator. It
// has no output-buffer hook: its result is always freshly allocated.
func (tr *Traverser) expandMap(frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	tr.counts.Map++
	for i := range frontier.Idx {
		w := frontier.Val[i]
		nbrs, mults := tr.g.Neighbors(hin.VertexID(frontier.Idx[i]), next)
		for j, u := range nbrs {
			tr.acc.Add(int32(u), w*float64(mults[j]))
		}
	}
	return tr.acc.Take()
}

// expandDense scatters into the dense scratch, offset by the target type's
// span base so the scratch is sized to one type, not the whole graph. The
// result is written into buf when it has room (see expandInto).
func (tr *Traverser) expandDense(frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) sparse.Vector {
	lo, hi, ok := tr.g.TypeIDSpan(next)
	if !ok {
		return sparse.Vector{} // no vertices of the target type at all
	}
	tr.counts.Dense++
	if tr.dense == nil {
		tr.dense = sparse.NewDenseAccumulator(0)
	}
	tr.dense.Grow(int(hi) - int(lo) + 1)
	base := int32(lo)
	for i := range frontier.Idx {
		w := frontier.Val[i]
		nbrs, mults := tr.g.Neighbors(hin.VertexID(frontier.Idx[i]), next)
		for j, u := range nbrs {
			tr.dense.Add(int32(u)-base, w*float64(mults[j]))
		}
	}
	out := tr.dense.TakeInto(buf)
	for i := range out.Idx {
		out.Idx[i] += base
	}
	return out
}

// outVector returns an empty vector with room for n coordinates: buf's
// storage when it is large enough, a fresh allocation otherwise.
func outVector(buf sparse.Vector, n int) sparse.Vector {
	if cap(buf.Idx) >= n && cap(buf.Val) >= n {
		return sparse.Vector{Idx: buf.Idx[:0], Val: buf.Val[:0]}
	}
	return sparse.Vector{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
}

// mergeCursor is one frontier row being consumed by the merge path.
type mergeCursor struct {
	nbrs  []hin.VertexID
	mults []int32
	w     float64
}

// expandMerge k-way-merges the sorted CSR rows of the frontier vertices
// straight into a sorted output vector: no scratch, no post-sort. The head
// scan is linear in the number of rows, so KernelAuto only routes frontiers
// with NNZ ≤ MergeMaxFrontier here. The result is written into buf when it
// has room (see expandInto).
func (tr *Traverser) expandMerge(frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) sparse.Vector {
	tr.counts.Merge++
	cursors := tr.cursors[:0]
	total := 0
	for i := range frontier.Idx {
		nbrs, mults := tr.g.Neighbors(hin.VertexID(frontier.Idx[i]), next)
		if len(nbrs) == 0 {
			continue
		}
		cursors = append(cursors, mergeCursor{nbrs, mults, frontier.Val[i]})
		total += len(nbrs)
	}
	tr.cursors = cursors[:0] // keep the grown scratch
	if len(cursors) == 0 {
		return sparse.Vector{}
	}
	if len(cursors) == 1 {
		// Single row: a straight scale of the adjacency row.
		c := cursors[0]
		out := outVector(buf, len(c.nbrs))
		for j, u := range c.nbrs {
			if x := c.w * float64(c.mults[j]); x != 0 {
				out.Idx = append(out.Idx, int32(u))
				out.Val = append(out.Val, x)
			}
		}
		return out
	}
	out := outVector(buf, total)
	for {
		best := -1
		var bestID hin.VertexID
		for ci := range cursors {
			c := &cursors[ci]
			if len(c.nbrs) == 0 {
				continue
			}
			if best < 0 || c.nbrs[0] < bestID {
				best, bestID = ci, c.nbrs[0]
			}
		}
		if best < 0 {
			return out
		}
		var sum float64
		for ci := range cursors {
			c := &cursors[ci]
			if len(c.nbrs) > 0 && c.nbrs[0] == bestID {
				sum += c.w * float64(c.mults[0])
				c.nbrs, c.mults = c.nbrs[1:], c.mults[1:]
			}
		}
		if sum != 0 { // exact cancellation drops the coordinate, like the accumulators
			out.Idx = append(out.Idx, int32(bestID))
			out.Val = append(out.Val, sum)
		}
	}
}
