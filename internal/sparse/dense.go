package sparse

import "math/bits"

// MaxDenseSpan is the largest coordinate span (entries, 8 B each) any dense
// scratch in the repository is sized for: the traverser's per-hop and
// combination scratch and Sum's pooled scratch. Wider coordinate spaces fall
// back to the map-backed Accumulator, so no scratch ever pins more than
// ~32 MiB.
const MaxDenseSpan = 4 << 20

// DenseAccumulator is the Gustavson-style scratch structure for frontier
// accumulation: a dense value array indexed by coordinate, a bitmap with one
// bit per slot that Add marks, and a summary bitmap with one bit per word of
// the first. Compared to the map-backed Accumulator it trades O(span)
// resident memory for hash-free O(1) scatter adds. A drain walks the summary
// (span/4 096 words), then the marked words and their set bits only:
// ascending by construction, so nothing is sorted and no empty slot is read,
// and it clears what it visits, so a long-lived accumulator amortizes its
// scratch across many drains. The zero value is an empty scratch; it grows
// lazily (Grow). Both accumulators produce identical vectors
// (property-tested); BenchmarkAccumulators has the drain's cost by density.
type DenseAccumulator struct {
	val  []float64
	mark []uint64 // bit i&63 of mark[i>>6]: slot i was added to since the last drain
	sum  []uint64 // bit w&63 of sum[w>>6]: mark[w] != 0
}

// NewDenseAccumulator creates an accumulator for coordinate space [0, n).
// n may be 0; the scratch then grows on the first Grow call.
func NewDenseAccumulator(n int) *DenseAccumulator {
	acc := &DenseAccumulator{}
	acc.Grow(n)
	return acc
}

// Grow ensures the accumulator accepts coordinates in [0, n). Growth
// preserves accumulated values and their marks, and doubles capacity to
// amortize repeated calls with creeping spans.
func (acc *DenseAccumulator) Grow(n int) {
	if n <= len(acc.val) {
		return
	}
	n = max(n, 2*len(acc.val))
	words := (n + 63) >> 6
	// Fresh zeroed storage of the new size, the old contents copied in.
	acc.val = append(make([]float64, 0, n), acc.val...)[:n]
	acc.mark = append(make([]uint64, 0, words), acc.mark...)[:words]
	acc.sum = append(make([]uint64, 0, (words+63)>>6), acc.sum...)[:(words+63)>>6]
}

// Size reports the current coordinate-space size.
func (acc *DenseAccumulator) Size() int { return len(acc.val) }

// Add adds x at coordinate i. i must be < the current Size.
func (acc *DenseAccumulator) Add(i int32, x float64) {
	w := uint(i) >> 6
	acc.mark[w] |= 1 << (uint(i) & 63)
	acc.sum[w>>6] |= 1 << (w & 63)
	acc.val[i] += x
}

// Len reports the number of marked coordinates: every one added to since the
// last drain, exact cancels and zero-valued adds included.
func (acc *DenseAccumulator) Len() int {
	n := 0
	for s, sw := range acc.sum {
		for ; sw != 0; sw &= sw - 1 {
			n += bits.OnesCount64(acc.mark[s<<6|bits.TrailingZeros64(sw)])
		}
	}
	return n
}

// TakeInto drains the accumulator into a sorted Vector and resets it for
// reuse, with base added to every coordinate (the span offset a caller
// subtracted on the way in), writing into buf's storage when it has room for
// every marked coordinate, so a caller that drains intermediates can recycle
// one buffer; a fresh vector is allocated otherwise.
func (acc *DenseAccumulator) TakeInto(buf Vector, base int32) Vector {
	n := acc.Len()
	if n == 0 {
		return Vector{}
	}
	if cap(buf.Idx) < n || cap(buf.Val) < n {
		buf = Vector{Idx: make([]int32, n), Val: make([]float64, n)}
	}
	n = acc.drain(buf.Idx[:n], buf.Val[:n], base)
	return Vector{Idx: buf.Idx[:n], Val: buf.Val[:n]}
}

// drain is the one walk over the marked slots, ascending: it clears every
// mark and slot it meets and, given room for Len coordinates, emits the
// non-zero ones offset by base and returns how many.
func (acc *DenseAccumulator) drain(idx []int32, val []float64, base int32) (n int) {
	emit := idx != nil
	for s, sw := range acc.sum {
		if sw == 0 {
			continue
		}
		acc.sum[s] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := s<<6 | bits.TrailingZeros64(sw)
			m := acc.mark[w]
			acc.mark[w] = 0
			for ; m != 0; m &= m - 1 {
				i := w<<6 | bits.TrailingZeros64(m)
				x := acc.val[i]
				acc.val[i] = 0
				if emit && x != 0 {
					idx[n], val[n] = int32(i)+base, x
					n++
				}
			}
		}
	}
	return n
}
