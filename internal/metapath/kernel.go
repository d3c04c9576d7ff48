package metapath

import (
	"slices"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// Kernel selects the frontier-expansion algorithm a Traverser uses for one
// hop of Φ_P materialization. The default, KernelAuto, picks per hop from
// the frontier's NNZ and share of its type and the target type's vertex-ID
// span; forcing a kernel is for benchmarks and equivalence tests. All kernels
// produce bit-equal sorted vectors (property- and fuzz-tested): each adds a
// coordinate's products in ascending source order, and rounds a product
// before adding it — the explicit float64 conversions forbid fusing the two,
// which a compiler could otherwise do in one kernel and not in another.
type Kernel int

const (
	// KernelAuto picks merge, pull, dense or map per hop (the default).
	KernelAuto Kernel = iota
	// KernelMap scatters into the map-backed Accumulator: unbounded
	// coordinate space, one hash per scattered edge. The fallback.
	KernelMap
	// KernelDense scatters into a dense scratch sized to the target type's
	// ID span, marking each slot it writes in a bitmap: hash-free adds, and a
	// drain that walks the marked slots only, in ascending order.
	KernelDense
	// KernelMerge scales the one already-sorted CSR adjacency row of a
	// single-vertex frontier into a sorted vector, touching no scratch at all.
	// Forced on a wider frontier it pushes instead, and counts what ran.
	KernelMerge
	// KernelPull gathers instead of scattering: the frontier is written once
	// into a dense array over its own type's ID span, and every vertex of the
	// target type sums that array over its own adjacency row — no accumulator,
	// no drain. It costs the whole type pair whatever the frontier, so it pays
	// when the frontier is a large share of its type.
	KernelPull
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
	case KernelPull:
		return "pull"
	}
	return "Kernel(?)"
}

// Crossover constants for KernelAuto, calibrated with BenchmarkExpand (see
// DESIGN.md "Expansion kernels"): the merge path wins for the one row it only
// has to scale; the dense scratch wins over the map at every frontier size
// but is capped so a traverser never pins more than ~32 MiB of scratch per
// hop on huge vertex types; pull wins once the edges the frontier would
// scatter are a large enough share of all the edges between the two types.
// Which body a pull then runs (pullRows) is a constant of hin, flatRowMean:
// Build needs it to keep Pair.Row for short rows only.
const (
	// mergeMaxFrontier is the largest frontier NNZ the merge path accepts:
	// in BenchmarkExpand's hop=/nnz= rows (BENCH_kernel.json) merge beats dense
	// for one long row (venue→paper, 0.72 vs 1.33 µs), is level for one short
	// row and was level for two rows and 1.1–2.1× behind at four before its
	// k-way body went. expandMerge scales one row only.
	mergeMaxFrontier = 1
	// MaxDenseSpan is the largest target-type ID span (entries, 8 B each)
	// the dense kernel will allocate scratch for.
	MaxDenseSpan = sparse.MaxDenseSpan
	// maxHopBuf is the largest intermediate-frontier buffer (coordinates,
	// 12 B each: 3 MiB) a traverser keeps between NeighborVector calls; a
	// wider hop gets a one-off buffer, so one wide query cannot pin memory
	// for the life of a serving process.
	maxHopBuf = 1 << 18
	// pullEdgeGain is how many pulled edges or row heads cost what one pushed
	// edge does (pullPays): BenchmarkExpand's share rows (BENCH_kernel.json)
	// cross near 25, 70 and 40 % of the source type on paper→venue, venue→paper
	// and author→paper; the rule says 33, 67 and 47 % (at 4: 25, 50, 35 %).
	pullEdgeGain = 3
	// pullMinEdges keeps hops of a few dozen edges pushed: a guard, not a
	// crossover. The estimate in pullPays says little about five vertices of
	// seven, and a push is bounded by the frontier, a pull by the type.
	pullMinEdges = 64
)

// KernelCounts reports how many hops each kernel expanded, for heuristic
// observability and tests.
type KernelCounts struct {
	Map, Dense, Merge, Pull uint64
}

// Add returns the sum c + o, for aggregating per-view deltas.
func (c KernelCounts) Add(o KernelCounts) KernelCounts {
	return KernelCounts{Map: c.Map + o.Map, Dense: c.Dense + o.Dense, Merge: c.Merge + o.Merge, Pull: c.Pull + o.Pull}
}

// Sub returns the difference c - o, for snapshot-style interval measurement.
func (c KernelCounts) Sub(o KernelCounts) KernelCounts {
	return KernelCounts{Map: c.Map - o.Map, Dense: c.Dense - o.Dense, Merge: c.Merge - o.Merge, Pull: c.Pull - o.Pull}
}

// SetKernel forces the expansion kernel (KernelAuto restores the adaptive
// heuristic). For benchmarks and equivalence tests.
func (tr *Traverser) SetKernel(k Kernel) { tr.kernel = k }

// KernelCounts returns how many hops each kernel has expanded so far.
func (tr *Traverser) KernelCounts() KernelCounts { return tr.counts }

// pick chooses the kernel for one hop: merge for tiny frontiers, pull when
// the frontier is a large enough share of its type (pullPays), otherwise a
// push kernel.
func (tr *Traverser) pick(frontier sparse.Vector, next hin.TypeID) Kernel {
	if tr.kernel != KernelAuto {
		return tr.kernel
	}
	if frontier.NNZ() <= mergeMaxFrontier {
		return KernelMerge
	}
	if tr.pullPays(frontier, next, tr.g.NumVerticesOfType(next)) {
		return KernelPull
	}
	return tr.pickPush(next)
}

// pickPush chooses between the scatter kernels: dense when the target type's
// ID span affords a scratch array, map otherwise.
func (tr *Traverser) pickPush(next hin.TypeID) Kernel {
	if lo, hi, ok := tr.g.TypeIDSpan(next); ok && int64(hi)-int64(lo) < MaxDenseSpan {
		return KernelDense
	}
	return KernelMap
}

// pullPays compares, in edges, pushing the frontier with gathering targets
// vertices of the next type (all of them for the kernel proper). Pushing
// reads the frontier's rows, estimated as its share of its type (taken from
// the first vertex) times all the edges between the two types; pulling reads
// the targets' share of those edges plus one row head each, at 1/pullEdgeGain
// of the price: no read-modify-write, no marks, no drain.
func (tr *Traverser) pullPays(frontier sparse.Vector, next hin.TypeID, targets int) bool {
	cur := tr.g.Type(hin.VertexID(frontier.Idx[0]))
	edges := float64(tr.g.EdgesBetween(cur, next))
	all := float64(tr.g.NumVerticesOfType(next))
	pushed := edges * float64(frontier.NNZ()) / float64(tr.g.NumVerticesOfType(cur))
	return pushed >= pullMinEdges && pushed*pullEdgeGain >= (edges+all)*float64(targets)/all
}

// expandMap is the fallback kernel: scatter through the map accumulator. It
// has no output-buffer hook: its result is always freshly allocated.
func (tr *Traverser) expandMap(frontier sparse.Vector, next hin.TypeID) sparse.Vector {
	tr.counts.Map++
	for i := range frontier.Idx {
		w := frontier.Val[i]
		nbrs, mults := tr.g.Neighbors(hin.VertexID(frontier.Idx[i]), next)
		tr.work += int64(len(nbrs))
		for j, u := range nbrs {
			tr.acc.Add(int32(u), float64(w*float64(mults[j])))
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
	acc, base := &tr.dense, int32(lo)
	acc.Grow(int(hi) - int(lo) + 1)
	unit := tr.unitInto[next]
	for i, v := range frontier.Idx {
		w := frontier.Val[i]
		nbrs, mults := tr.g.Neighbors(hin.VertexID(v), next)
		tr.work += int64(len(nbrs))
		if unit { // x·1 is x: skip the multiplicity, as pullRows does
			for _, u := range nbrs {
				acc.Add(int32(u)-base, w)
			}
			continue
		}
		for j, u := range nbrs {
			acc.Add(int32(u)-base, float64(w*float64(mults[j])))
		}
	}
	return acc.TakeInto(buf, base)
}

// expandPull is the gather kernel: out[u] = Σ_w in[w]·mult(u,w) over u's
// neighbors w of the frontier's type, for every u of the target type in
// ascending order. Edges are symmetric with equal multiplicity and u's row
// ascends, so each coordinate adds the products the push kernels add over an
// ascending frontier, in their order (a vertex outside the frontier adds +0,
// which changes no sum): the result is bit-equal to theirs. ok is false, and
// nothing counted, when scatterIn refuses the frontier; the caller pushes.
//
// The result is written into buf once it has room for a coordinate per target
// vertex (a hop buffer grows to that once). The zero buf asks for a fresh
// result: gathered into the traverser's spare buffer and copied out at the
// size of its non-zeros, not of the target type.
func (tr *Traverser) expandPull(frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) (out sparse.Vector, ok bool) {
	in, lo, ok := tr.scatterIn(frontier)
	if !ok {
		return sparse.Vector{}, false
	}
	tr.counts.Pull++
	cur := tr.g.Type(hin.VertexID(frontier.Idx[0]))
	targets := tr.g.VerticesOfType(next)
	fresh := cap(buf.Idx) == 0
	if fresh {
		buf = tr.spare
	}
	out = outVector(buf, len(targets))
	// Every row writes its slot; only a non-zero sum keeps it.
	idx, val, n := out.Idx[:len(targets)], out.Val[:len(targets)], 0
	pair := tr.g.Pair(next, cur)
	tr.work += int64(pair.Off[len(targets)] - pair.Off[0])
	pullRows(pair, 0, in, lo, val)
	for i, u := range targets {
		if x := val[i]; x != 0 {
			idx[n], val[n] = int32(u), x
			n++
		}
	}
	out.Idx, out.Val = idx[:n], val[:n]
	tr.clearIn(frontier, lo)
	if fresh {
		if cap(out.Idx) <= maxHopBuf {
			tr.spare = out
		}
		out = out.Clone()
	}
	return out, true
}

// gatherAt is the pull kernel for the target vertices at only: vals[i]
// becomes coordinate at[i] of the expanded frontier (not empty), 0 for a
// vertex not of type next. It reports false, vals untouched, when gathering
// those rows does not pay (pullPays; a forced kernel decides instead) or
// scatterIn refuses.
func (tr *Traverser) gatherAt(frontier sparse.Vector, next hin.TypeID, at []hin.VertexID, vals []float64) bool {
	if tr.kernel != KernelPull && (tr.kernel != KernelAuto || !tr.pullPays(frontier, next, len(at))) {
		return false
	}
	in, lo, ok := tr.scatterIn(frontier)
	if !ok {
		return false
	}
	tr.gatherRows(in, lo, tr.g.Type(hin.VertexID(frontier.Idx[0])), next, at, vals)
	tr.clearIn(frontier, lo)
	return true
}

// gatherRows is one pulled hop from type cur, whose frontier in holds over
// its ID span from lo, read at the vertices at of type next: vals[i] is the
// row sum of at[i], 0 for a vertex not of type next. A run of the type's
// vertex list (what PartitionVertices hands a local range or a shard) is
// gathered from the pair's run like the whole type, anything else row by row.
func (tr *Traverser) gatherRows(in []float64, lo int32, cur, next hin.TypeID, at []hin.VertexID, vals []float64) {
	tr.counts.Pull++
	if first, ok := runOf(tr.g.VerticesOfType(next), at); ok {
		pair := tr.g.Pair(next, cur)
		tr.work += int64(pair.Off[first+len(at)] - pair.Off[first])
		pullRows(pair, first, in, lo, vals)
		return
	}
	for i, v := range at {
		if tr.g.Valid(v) && tr.g.Type(v) == next {
			nbrs, mults := tr.g.Neighbors(v, cur)
			tr.work += int64(len(nbrs))
			vals[i] = rowSum(in, lo, nbrs, mults)
		}
	}
}

// runOf reports whether at is the run vs[first:first+len(at)] of the ascending
// list vs, and where it starts. at is vertex IDs, as such or as the
// coordinates of a vector.
func runOf[V ~int32](vs []hin.VertexID, at []V) (first int, ok bool) {
	if len(at) == 0 {
		return 0, false
	}
	first, _ = slices.BinarySearch(vs, hin.VertexID(at[0]))
	if len(at) > len(vs)-first {
		return first, false
	}
	for i, v := range vs[first : first+len(at)] {
		if v != hin.VertexID(at[i]) {
			return first, false
		}
	}
	return first, true
}

// pullRows writes out[i] = Σ_j in[Nbr[j]]·Mult[j] over row first+i of the pair.
// A pair that keeps Row (short rows) is walked flat, entry by entry in storage
// order: no loop per row, whose trip count of one to eight no branch predictor
// learns. Any other sums each row in a register, which a read-modify-write per
// entry loses to. Both add a row's rounded products in ascending order onto
// +0, as rowSum and the push kernels do: which one runs shows in no bit.
func pullRows(p hin.Pair, first int, in []float64, lo int32, out []float64) {
	off := p.Off[first : first+len(out)+1]
	if p.Row == nil {
		for i := range out {
			out[i] = rowSum(in, lo, p.Nbr[off[i]:off[i+1]], p.Mult[off[i]:off[i+1]])
		}
		return
	}
	clear(out)
	a, b := off[0], off[len(out)]
	nbr, mult, row := p.Nbr[a:b], p.Mult[a:b], p.Row[a:b]
	if p.Unit { // x·1 is x: skip the multiplicity's load, conversion and product
		for j, w := range nbr {
			out[int(row[j])-first] += in[int32(w)-lo]
		}
		return
	}
	for j, w := range nbr {
		out[int(row[j])-first] += float64(in[int32(w)-lo] * float64(mult[j]))
	}
}

// scatterIn writes the frontier into the pull scratch, indexed by vertex ID
// minus lo, the first ID of the frontier's type. ok is false, and the scratch
// all zero again, for a frontier pull cannot take: empty, not ascending, of
// mixed types, or of a type whose ID span is past MaxDenseSpan.
func (tr *Traverser) scatterIn(frontier sparse.Vector) (in []float64, lo int32, ok bool) {
	if frontier.IsZero() {
		return nil, 0, false
	}
	cur := tr.g.Type(hin.VertexID(frontier.Idx[0]))
	first, last, _ := tr.g.TypeIDSpan(cur)
	span := int64(last) - int64(first) + 1
	if span > MaxDenseSpan {
		return nil, 0, false
	}
	if int64(len(tr.in)) < span {
		tr.in = make([]float64, span)
	}
	in, lo = tr.in, int32(first)
	prev := int32(-1)
	for i, ix := range frontier.Idx {
		if ix <= prev || tr.g.Type(hin.VertexID(ix)) != cur {
			tr.clearIn(sparse.Vector{Idx: frontier.Idx[:i]}, lo)
			return nil, 0, false
		}
		prev = ix
		in[ix-lo] = frontier.Val[i]
	}
	return in, lo, true
}

// clearIn zeroes the pull scratch at the frontier's coordinates.
func (tr *Traverser) clearIn(frontier sparse.Vector, lo int32) {
	for _, ix := range frontier.Idx {
		tr.in[ix-lo] = 0
	}
}

// rowSum sums in over one adjacency row, each neighbor weighted by its edge
// multiplicity, in the row's ascending order.
func rowSum(in []float64, lo int32, nbrs []hin.VertexID, mults []int32) float64 {
	var s float64
	for j, w := range nbrs {
		s += float64(in[int32(w)-lo] * float64(mults[j]))
	}
	return s
}

// outVector returns an empty vector with room for n coordinates: buf's
// storage when it is large enough, a fresh allocation otherwise.
func outVector(buf sparse.Vector, n int) sparse.Vector {
	if cap(buf.Idx) >= n && cap(buf.Val) >= n {
		return sparse.Vector{Idx: buf.Idx[:0], Val: buf.Val[:0]}
	}
	return sparse.Vector{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
}

// expandMerge scales the sorted CSR row of a frontier of at most
// mergeMaxFrontier (one) vertex straight into a sorted output vector: no
// scratch, no drain. The result is written into buf when it has room.
func (tr *Traverser) expandMerge(frontier sparse.Vector, next hin.TypeID, buf sparse.Vector) sparse.Vector {
	tr.counts.Merge++
	if frontier.IsZero() {
		return sparse.Vector{}
	}
	w := frontier.Val[0]
	nbrs, mults := tr.g.Neighbors(hin.VertexID(frontier.Idx[0]), next)
	tr.work += int64(len(nbrs))
	if len(nbrs) == 0 {
		return sparse.Vector{}
	}
	out := outVector(buf, len(nbrs))
	for j, u := range nbrs {
		if x := float64(w * float64(mults[j])); x != 0 {
			out.Idx = append(out.Idx, int32(u))
			out.Val = append(out.Val, x)
		}
	}
	return out
}
