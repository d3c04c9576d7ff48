package walk

import (
	"math"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// PPRMetaPath computes a meta-path-constrained random walk with restart:
// the walker lives on vertices of the path's source type and each step
// follows one full instantiation of the symmetric path P·P⁻¹, choosing
// among instances proportionally to path counts. This is the walk whose
// single-step return probability underlies the paper's normalized
// connectivity interpretation (Section 5.1), extended to a stationary
// distribution with restart.
//
// The result is a distribution over source-type vertices summing to 1
// (dead-end mass returns to the source).
func PPRMetaPath(g *hin.Graph, p metapath.Path, source hin.VertexID, opts PPROptions) (sparse.Vector, error) {
	if err := p.Validate(g.Schema()); err != nil {
		return sparse.Vector{}, err
	}
	if err := metapath.CheckSource(g, p, source); err != nil {
		return sparse.Vector{}, err
	}
	opts.defaults()
	sym := p.Symmetric()
	tr := metapath.NewTraverser(g)

	// step advances a distribution over source-type vertices through one
	// symmetric-path macro step, row-normalizing per origin vertex.
	step := func(cur map[int32]float64) map[int32]float64 {
		next := make(map[int32]float64, len(cur)*2)
		for vi, mass := range cur {
			phi, err := tr.NeighborVector(sym, hin.VertexID(vi))
			if err != nil || phi.IsZero() {
				// Dead end under this path: mass returns to the source.
				next[int32(source)] += mass
				continue
			}
			total := phi.Sum()
			for k := range phi.Idx {
				next[phi.Idx[k]] += mass * phi.Val[k] / total
			}
		}
		return next
	}

	cur := map[int32]float64{int32(source): 1}
	for iter := 0; iter < opts.MaxIter; iter++ {
		stepped := step(cur)
		next := make(map[int32]float64, len(stepped)+1)
		next[int32(source)] += opts.Alpha
		for k, x := range stepped {
			next[k] += (1 - opts.Alpha) * x
		}
		var diff float64
		for k, x := range next {
			diff += math.Abs(x - cur[k])
		}
		for k, x := range cur {
			if _, ok := next[k]; !ok {
				diff += math.Abs(x)
			}
		}
		cur = next
		if diff < opts.Tol {
			break
		}
	}
	return sparse.FromMap(cur), nil
}

// PPRMetaPathOutlierScores scores candidates as
// Ω(vi) = Σ_{vj∈Sr, vj≠vi} pprP_vi(vj) under the meta-path-constrained
// walk. The self term is excluded: the constrained walk conserves all its
// mass on source-type vertices, so when Sr covers the candidate's reachable
// set the inclusive sum is identically 1 for every candidate — only the
// mass reaching *other* reference vertices separates outliers. Smaller
// means more outlying.
func PPRMetaPathOutlierScores(g *hin.Graph, p metapath.Path, cands, refs []hin.VertexID, opts PPROptions) ([]float64, error) {
	refSet := make(map[int32]bool, len(refs))
	for _, r := range refs {
		refSet[int32(r)] = true
	}
	out := make([]float64, len(cands))
	for i, v := range cands {
		ppr, err := PPRMetaPath(g, p, v, opts)
		if err != nil {
			return nil, err
		}
		var sum float64
		for k, ix := range ppr.Idx {
			if refSet[ix] && ix != int32(v) {
				sum += ppr.Val[k]
			}
		}
		out[i] = sum
	}
	return out, nil
}
