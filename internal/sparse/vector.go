// Package sparse provides the small sparse-vector toolkit used to represent
// meta-path neighbor vectors Φ_P(v) (Definition 7 of the paper) and to
// evaluate the NetOut formula, Equation (1), with sparse dot products.
//
// Vectors are stored in sorted coordinate form: parallel slices of indices
// and values with strictly increasing indices. This makes dot products and
// norms linear merges (or, for lopsided operands, a galloping search),
// keeps memory compact for index pre-materialization, and supports exact
// byte accounting for the SPM index size study (Figure 5b).
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Vector is a sparse vector in sorted coordinate form. Idx is strictly
// increasing; Val[i] is the value at coordinate Idx[i]. Zero values should
// not be stored (the constructors drop them). The zero Vector is an empty
// (all-zero) vector and is ready to use.
type Vector struct {
	Idx []int32
	Val []float64
}

// FromMap builds a Vector from a coordinate map, dropping zeros.
func FromMap(m map[int32]float64) Vector {
	v, _ := sortedVector(m, make([]coord, 0, len(m)))
	return v
}

// sortedVector appends m's non-zero coordinates to pairs, co-sorts them and
// splits them into a Vector: one map pass, no re-hashing to fetch the
// values. The grown pairs slice is returned for reuse.
func sortedVector(m map[int32]float64, pairs []coord) (Vector, []coord) {
	for ix, x := range m {
		if x != 0 {
			pairs = append(pairs, coord{ix, x})
		}
	}
	slices.SortFunc(pairs, func(a, b coord) int { return cmp.Compare(a.ix, b.ix) })
	v := Vector{
		Idx: make([]int32, len(pairs)),
		Val: make([]float64, len(pairs)),
	}
	for i, c := range pairs {
		v.Idx[i] = c.ix
		v.Val[i] = c.x
	}
	return v, pairs
}

// NNZ reports the number of stored (non-zero) coordinates.
func (a Vector) NNZ() int { return len(a.Idx) }

// IsZero reports whether the vector has no stored coordinates.
func (a Vector) IsZero() bool { return len(a.Idx) == 0 }

// At returns the value at coordinate i (0 if absent).
func (a Vector) At(i int32) float64 {
	k := sort.Search(len(a.Idx), func(k int) bool { return a.Idx[k] >= i })
	if k < len(a.Idx) && a.Idx[k] == i {
		return a.Val[k]
	}
	return 0
}

// gallopRatio is the Dot crossover: from this length ratio up the short
// operand is walked and each of its coordinates located in the long one by
// galloping, instead of merging both lists. In BenchmarkDot the two break
// even at 4× and galloping is 1.6× faster at 8× (DESIGN.md "Scoring
// kernels").
const gallopRatio = 8

// Dot returns the inner product a·b. Balanced operands are merged; when one
// is at least gallopRatio times longer the short one drives a galloping
// search through the long one. Either way the products of the shared
// coordinates are added in ascending coordinate order, so the result does
// not depend on which ran.
func (a Vector) Dot(b Vector) float64 {
	if len(a.Idx) > len(b.Idx) {
		a, b = b, a
	}
	if len(b.Idx) >= gallopRatio*len(a.Idx) {
		return dotGallop(a, b)
	}
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// dotGallop walks the short operand and finds each coordinate in the long
// one by an exponential probe from the previous position followed by a
// binary search of the bracketed window: O(|short|·log(|long|/|short|)).
func dotGallop(short, long Vector) float64 {
	var s float64
	idx := long.Idx
	j := 0
	for i, ix := range short.Idx {
		// Invariant: every long coordinate before j is < ix.
		lo, hi, step := j, j, 1
		for hi < len(idx) && idx[hi] < ix {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		hi = min(hi, len(idx))
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); idx[mid] < ix {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if j = lo; j == len(idx) {
			break
		}
		if idx[j] == ix {
			s += short.Val[i] * long.Val[j]
			j++
		}
	}
	return s
}

// Norm2Sq returns the squared Euclidean norm ‖a‖₂². For a neighbor vector
// Φ_P(v) this equals the vertex's visibility κ(v,v) = |π_{PP⁻¹}(v,v)|.
func (a Vector) Norm2Sq() float64 {
	var s float64
	for _, x := range a.Val {
		s += x * x
	}
	return s
}

// Norm2 returns the Euclidean norm ‖a‖₂.
func (a Vector) Norm2() float64 { return math.Sqrt(a.Norm2Sq()) }

// Sum returns the plain coordinate sum Σᵢ aᵢ.
func (a Vector) Sum() float64 {
	var s float64
	for _, x := range a.Val {
		s += x
	}
	return s
}

// Scale returns s·a as a new vector. Scaling by zero yields the empty vector.
func (a Vector) Scale(s float64) Vector {
	if s == 0 {
		return Vector{}
	}
	out := Vector{Idx: append([]int32(nil), a.Idx...), Val: make([]float64, len(a.Val))}
	for i, x := range a.Val {
		out.Val[i] = s * x
	}
	return out
}

// Equal reports exact coordinate-wise equality.
func (a Vector) Equal(b Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (a Vector) Clone() Vector {
	return Vector{
		Idx: append([]int32(nil), a.Idx...),
		Val: append([]float64(nil), a.Val...),
	}
}

// Bytes reports the in-memory footprint of the stored coordinates (4 bytes
// per index + 8 per value), used for the SPM index-size accounting of
// Figure 5b.
func (a Vector) Bytes() int { return len(a.Idx)*4 + len(a.Val)*8 }

// String renders the vector like "{3:1 7:2.5}".
func (a Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range a.Idx {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%g", a.Idx[i], a.Val[i])
	}
	sb.WriteByte('}')
	return sb.String()
}

// sumScratch pools Sum's dense scratch so the per-query reference reduction
// allocates only its result.
var sumScratch = sync.Pool{New: func() any { return NewDenseAccumulator(0) }}

// Sum returns the coordinate-wise sum of a set of vectors, dropping exact
// zeros. Used to form S = Σ_{v∈Sr} Φ_P(v) in Equation (1).
//
// The vectors are scattered, in order, into a pooled dense scratch offset by
// the lowest coordinate present; only inputs spanning more than MaxDenseSpan
// coordinates (e.g. CombineConcat strides over a huge graph) go through the
// map-backed Accumulator. Each coordinate receives its additions in vector
// order on both routes, so the result does not depend on which ran.
func Sum(vs []Vector) Vector { return WeightedSum(vs, nil) }

// WeightedSum returns Σ_j w[j]·vs[j] like Sum (nil w: every weight 1). Each
// product w[j]·x is formed before it is added and a vector of weight 0 is
// skipped, so the result is Float64bits-identical to Sum over the vectors
// scaled first (Vector.Scale), without allocating them; weight 1 changes no
// bit.
func WeightedSum(vs []Vector, w []float64) Vector {
	weight := func(j int) float64 {
		if w == nil {
			return 1
		}
		return w[j]
	}
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, v := range vs {
		if n := len(v.Idx); n > 0 {
			lo, hi = min(lo, v.Idx[0]), max(hi, v.Idx[n-1])
		}
	}
	if lo > hi {
		return Vector{}
	}
	span := int64(hi) - int64(lo) + 1
	if span > MaxDenseSpan {
		acc := NewAccumulator(0)
		for j, v := range vs {
			if c := weight(j); c != 0 {
				for k, ix := range v.Idx {
					acc.Add(ix, c*v.Val[k])
				}
			}
		}
		return acc.Take()
	}
	acc := sumScratch.Get().(*DenseAccumulator)
	acc.Grow(int(span))
	for j, v := range vs {
		if c := weight(j); c != 0 {
			for k, ix := range v.Idx {
				acc.Add(ix-lo, c*v.Val[k])
			}
		}
	}
	out := acc.TakeInto(Vector{}, lo)
	// A scratch that Grow's doubling pushed past the cap is left to the
	// collector instead of riding the pool for the life of the process.
	if acc.Size() <= MaxDenseSpan {
		sumScratch.Put(acc)
	}
	return out
}
