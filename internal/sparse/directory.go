package sparse

import "math/bits"

// Directory is a rank directory over the coordinates of one fixed vector S:
// an occupancy bitmap with one bit per ID of S's span and, per 64-bit word,
// the number of S's coordinates before that word. The position in S of a
// coordinate is then one bit test and one popcount away, so DotNorm walks the
// other operand alone, in one pass over its own coordinates, however long S
// is. Built once per S and read-only after: safe for concurrent use.
type Directory struct {
	s    Vector
	lo   int32    // S's first coordinate
	occ  []uint64 // bit i&63 of occ[i>>6]: lo+i is a coordinate of S
	rank []int32  // rank[w]: S's coordinates in occ[:w]
}

// dirMaxWordsPerCoord is the density rule: S gets a directory when its span
// takes at most this many 64-ID words per coordinate, which holds the
// directory (12 bytes a word) to S's own 12 bytes a coordinate. Over a
// sparser S the directory stays empty and DotNorm is Dot. In BenchmarkDot's
// density sweep (DESIGN.md "Scoring kernels") DotNorm beats Dot + Norm2Sq
// 2.6–4.1× at every density down to 1/16 of a coordinate per word; what the
// rule bounds is the build, which grows with the words and which a query
// whose reduction is not memoized pays every time: at one coordinate per word
// it costs what four candidates save, at 1/16 thirty.
const dirMaxWordsPerCoord = 1

// NewDirectory builds S's directory, or an empty one that falls back to Dot
// when S is sparser than dirMaxWordsPerCoord. S is held, not copied.
func NewDirectory(s Vector) Directory {
	if n := len(s.Idx); n == 0 || (int64(s.Idx[n-1])-int64(s.Idx[0]))>>6 >= dirMaxWordsPerCoord*int64(n) {
		return Directory{s: s}
	}
	return buildDirectory(s)
}

// buildDirectory builds the directory of a non-empty S whatever its density.
func buildDirectory(s Vector) Directory {
	lo := s.Idx[0]
	words := (int64(s.Idx[len(s.Idx)-1])-int64(lo))>>6 + 1
	d := Directory{s: s, lo: lo, occ: make([]uint64, words), rank: make([]int32, words)}
	for _, ix := range s.Idx {
		i := int64(ix) - int64(lo)
		d.occ[i>>6] |= 1 << (i & 63)
	}
	var r int32
	for w, m := range d.occ {
		d.rank[w] = r
		r += int32(bits.OnesCount64(m))
	}
	return d
}

// Bytes reports what the directory adds to S: 12 bytes per word, 0 when S
// is too sparse for one.
func (d *Directory) Bytes() int { return 12 * len(d.occ) }

// DotNorm returns a·S and ‖a‖₂² in one pass over a's coordinates, the two in
// independent accumulators. It is Float64bits-identical to a.Dot(S) and
// a.Norm2Sq(): each starts from +0 and adds the same products in a's
// ascending coordinate order — x·x for every coordinate, x·S[i] for each
// coordinate S shares — and IEEE multiplication is commutative, so which
// operand Dot puts on the left does not matter.
func (d *Directory) DotNorm(a Vector) (dot, vis float64) {
	if d.occ == nil {
		return a.Dot(d.s), a.Norm2Sq()
	}
	occ, rank, sv := d.occ, d.rank, d.s.Val
	av := a.Val[:len(a.Idx)]
	for k, ix := range a.Idx {
		x := av[k]
		vis += x * x
		// Below lo the offset wraps past every word.
		i := uint64(int64(ix) - int64(d.lo))
		if w := i >> 6; w < uint64(len(occ)) {
			bit := uint64(1) << (i & 63)
			if m := occ[w]; m&bit != 0 {
				dot += x * sv[int(rank[w])+bits.OnesCount64(m&(bit-1))]
			}
		}
	}
	return dot, vis
}
