package sparse

import "slices"

// MaxDenseSpan is the largest coordinate span (entries, 8 B each) any dense
// scratch in the repository is sized for: the traverser's per-hop scratch,
// the indexed materializer's chunk scratch and Sum's pooled scratch. Wider
// coordinate spaces fall back to the map-backed Accumulator, so no scratch
// ever pins more than ~32 MiB.
const MaxDenseSpan = 4 << 20

// scanTakeRatio is the Take crossover: a drain whose touched coordinates
// span fewer than scanTakeRatio slots each is emitted by one linear scan of
// that range instead of sorting the touched list. In BenchmarkAccumulators'
// take arms the scan stops winning between 8 and 16 slots per coordinate at
// 64–1 024 touched and between 32 and 64 at 16 384 (the sort is n·log n, the
// scan n·slots); the wide frontiers that dominate traversal sit at 1–8.
const scanTakeRatio = 16

// DenseAccumulator is the Gustavson-style scratch structure for frontier
// accumulation: a dense value array indexed by coordinate plus a touched
// list. Compared to the map-backed Accumulator it trades O(span) resident
// memory for hash-free O(1) scatter adds; clearing is O(touched) (or one
// pass over the touched range, see Take), not O(span), so a long-lived
// accumulator amortizes its scratch across many drains.
//
// The scratch grows lazily (Grow), so a zero-sized accumulator costs nothing
// until its first dense hop. The adaptive kernel in internal/metapath
// offsets coordinates by the target type's ID span base, keeping the scratch
// proportional to one vertex type rather than the whole graph. Both
// accumulators produce identical vectors (property-tested); see
// BenchmarkAccumulators and BenchmarkExpand for the measured crossovers.
type DenseAccumulator struct {
	val     []float64
	touched []int32
}

// NewDenseAccumulator creates an accumulator for coordinate space [0, n).
// n may be 0; the scratch then grows on the first Grow call.
func NewDenseAccumulator(n int) *DenseAccumulator {
	return &DenseAccumulator{val: make([]float64, n)}
}

// Grow ensures the accumulator accepts coordinates in [0, n). Growth
// preserves accumulated values and doubles capacity to amortize repeated
// calls with creeping spans.
func (acc *DenseAccumulator) Grow(n int) {
	if n <= len(acc.val) {
		return
	}
	if c := 2 * len(acc.val); n < c {
		n = c
	}
	val := make([]float64, n)
	copy(val, acc.val)
	acc.val = val
}

// Size reports the current coordinate-space size.
func (acc *DenseAccumulator) Size() int { return len(acc.val) }

// Add adds x at coordinate i. i must be < the current Size.
func (acc *DenseAccumulator) Add(i int32, x float64) {
	if acc.val[i] == 0 && x != 0 {
		acc.touched = append(acc.touched, i)
	}
	acc.val[i] += x
}

// AddVector adds w·v into the accumulator.
func (acc *DenseAccumulator) AddVector(v Vector, w float64) {
	for k := range v.Idx {
		acc.Add(v.Idx[k], w*v.Val[k])
	}
}

// Len reports the number of touched coordinates (including exact cancels).
func (acc *DenseAccumulator) Len() int { return len(acc.touched) }

// Take drains the accumulator into a freshly allocated sorted Vector and
// resets it for reuse.
func (acc *DenseAccumulator) Take() Vector { return acc.TakeInto(Vector{}) }

// TakeInto is Take writing into buf's storage when it has room for every
// touched coordinate (a fresh vector is allocated otherwise), so a caller
// that drains intermediates can recycle one buffer. The result aliases buf
// in that case; buf's previous contents are overwritten.
//
// When the touched coordinates are dense in their own [lo, hi] range the
// range is scanned once, emitting and zeroing as it goes; sparse drains sort
// the touched list instead. Both emit the non-zero coordinates in ascending
// order, so the output does not depend on which ran.
func (acc *DenseAccumulator) TakeInto(buf Vector) Vector {
	n := len(acc.touched)
	if n == 0 {
		return Vector{}
	}
	out := Vector{Idx: buf.Idx[:0], Val: buf.Val[:0]}
	if cap(out.Idx) < n || cap(out.Val) < n {
		out = Vector{Idx: make([]int32, 0, n), Val: make([]float64, 0, n)}
	}
	lo, hi := acc.touched[0], acc.touched[0]
	for _, ix := range acc.touched[1:] {
		lo, hi = min(lo, ix), max(hi, ix)
	}
	if int(hi-lo) < scanTakeRatio*n {
		// Cancelled coordinates already hold 0 and re-touched ones are met
		// once, so the scan needs neither rule of the sort path spelled out.
		for ix, x := range acc.val[lo : hi+1] {
			if x != 0 {
				out.Idx = append(out.Idx, lo+int32(ix))
				out.Val = append(out.Val, x)
				acc.val[int(lo)+ix] = 0
			}
		}
	} else {
		slices.Sort(acc.touched)
		prev := int32(-1)
		for _, ix := range acc.touched {
			if ix == prev {
				continue // coordinate re-touched after cancelling to zero
			}
			prev = ix
			if x := acc.val[ix]; x != 0 {
				out.Idx = append(out.Idx, ix)
				out.Val = append(out.Val, x)
			}
			acc.val[ix] = 0
		}
	}
	acc.touched = acc.touched[:0]
	return out
}

// Reset clears the accumulator without producing a vector.
func (acc *DenseAccumulator) Reset() {
	for _, ix := range acc.touched {
		acc.val[ix] = 0
	}
	acc.touched = acc.touched[:0]
}
