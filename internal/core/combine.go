package core

import (
	"fmt"

	"netout/internal/sparse"
)

// Combination selects how multiple feature meta-paths are combined into one
// outlier score. Section 5.1 leaves the choice open, naming exactly these
// two families: "The connectivity between vertices can be redefined, or
// independent outlier scores can be computed considering each feature
// meta-path independently and then averaged."
type Combination int

const (
	// CombineAverage scores each feature meta-path independently and takes
	// the weighted average of the per-path Ω values (the default).
	CombineAverage Combination = iota
	// CombineConcat redefines connectivity: the per-path neighbor vectors
	// are concatenated into disjoint coordinate spaces (each scaled by its
	// weight) and a single Ω is computed over the combined vectors. Path
	// weights therefore act on the connectivity counts themselves, and a
	// candidate's visibility pools across paths.
	CombineConcat
)

func (c Combination) String() string {
	switch c {
	case CombineAverage:
		return "average"
	case CombineConcat:
		return "concat"
	}
	return fmt.Sprintf("Combination(%d)", int(c))
}

// ParseCombination resolves "average" or "concat".
func ParseCombination(name string) (Combination, error) {
	switch name {
	case "average", "avg":
		return CombineAverage, nil
	case "concat", "concatenate":
		return CombineConcat, nil
	}
	return 0, fmt.Errorf("core: unknown combination %q (want average or concat)", name)
}

// WithCombination selects the multi-path combination mode (default
// CombineAverage). Queries with a single feature meta-path are unaffected.
func WithCombination(c Combination) Option { return func(e *Engine) { e.combine = c } }

// concatOne shifts each path's vector into its own coordinate block of width
// stride and concatenates, scaling values by the path weight: vecs[m] is one
// vertex's vector under feature path m. It is the only concatenation
// arithmetic (weight scaling, block offsets, append order), so CombineConcat
// scores are bit-identical wherever a vertex is combined.
func concatOne(vecs []sparse.Vector, weights []float64, stride int32) sparse.Vector {
	var totalNNZ int
	for m := range vecs {
		totalNNZ += vecs[m].NNZ()
	}
	v := sparse.Vector{
		Idx: make([]int32, 0, totalNNZ),
		Val: make([]float64, 0, totalNNZ),
	}
	for m := range vecs {
		offset := int32(m) * stride
		src := vecs[m]
		w := weights[m]
		for k := range src.Idx {
			v.Idx = append(v.Idx, src.Idx[k]+offset)
			v.Val = append(v.Val, w*src.Val[k])
		}
	}
	return v
}

// concatVectors is concatOne over a vertex set held path-major: perPath[m][i]
// is vertex i's vector under feature path m.
func concatVectors(perPath [][]sparse.Vector, weights []float64, stride int32) []sparse.Vector {
	if len(perPath) == 0 {
		return nil
	}
	out := make([]sparse.Vector, len(perPath[0]))
	one := make([]sparse.Vector, len(perPath))
	for i := range out {
		for m := range perPath {
			one[m] = perPath[m][i]
		}
		out[i] = concatOne(one, weights, stride)
	}
	return out
}
