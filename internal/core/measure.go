// Package core implements the paper's primary contribution: the NetOut
// outlierness measure (Section 5), the comparison measures built on PathSim
// and cosine similarity, and the query execution engine with the Baseline,
// PM (pre-materialization) and SPM (selective pre-materialization)
// strategies of Section 6.
package core

import (
	"fmt"
	"math"

	"netout/internal/metapath"
	"netout/internal/sparse"
)

// Measure selects the outlierness formula applied to candidate and
// reference neighbor vectors. Smaller scores always mean more outlying.
type Measure int

const (
	// MeasureNetOut is the paper's measure (Definition 10): the sum of
	// normalized connectivities Ω(vi) = Σ_{vj∈Sr} κ(vi,vj)/κ(vi,vi),
	// computed with the O(|Sr|+|Sc|) rewriting of Equation (1).
	MeasureNetOut Measure = iota
	// MeasurePathSim replaces normalized connectivity with PathSim
	// (Sun et al., VLDB 2011): 2κ(vi,vj)/(κ(vi,vi)+κ(vj,vj)).
	MeasurePathSim
	// MeasureCosSim replaces normalized connectivity with the cosine
	// similarity of the neighbor vectors.
	MeasureCosSim
)

// ParseMeasure resolves a measure name ("netout", "pathsim", "cossim").
func ParseMeasure(name string) (Measure, error) {
	switch name {
	case "netout", "NetOut":
		return MeasureNetOut, nil
	case "pathsim", "PathSim":
		return MeasurePathSim, nil
	case "cossim", "CosSim", "cosine":
		return MeasureCosSim, nil
	}
	return 0, fmt.Errorf("core: unknown measure %q (want netout, pathsim or cossim)", name)
}

func (m Measure) String() string {
	switch m {
	case MeasureNetOut:
		return "NetOut"
	case MeasurePathSim:
		return "PathSim"
	case MeasureCosSim:
		return "CosSim"
	}
	return fmt.Sprintf("Measure(%d)", int(m))
}

// ScoreVectors computes the outlierness score of every candidate neighbor
// vector against the reference neighbor vectors under the given measure.
// A NaN score marks a candidate that cannot be characterized by the feature
// meta-path (zero visibility: its neighbor vector is empty); callers
// typically exclude such candidates from the ranking.
//
// NetOut and CosSim use the separable fast path (Equation (1)), which is
// O(|Sr|+|Sc|) sparse operations; PathSim is inherently pairwise,
// O(|Sr|·|Sc|), exactly as discussed under Definition 10.
func ScoreVectors(m Measure, cands, refs []sparse.Vector) []float64 {
	rs := newRefScorer(m, refs)
	out := make([]float64, len(cands))
	for i, phi := range cands {
		out[i] = rs.score(phi)
	}
	return out
}

// refScorer is a measure's reference-side precomputation: everything that
// depends only on Sr, computed once per (query, path) and then shared
// read-only — ScoreVectors builds one per call, a query one up front that
// every candidate range scores against concurrently.
type refScorer struct {
	m Measure
	// s is the separable reference aggregate of Equation (1): Σ Φ(vj) for
	// NetOut, Σ Φ(vj)/‖Φ(vj)‖ for CosSim. dir is its rank directory, through
	// which every candidate is dotted against it, once hasDir: withDir builds
	// it, on a shard only for a path its candidate side dots against.
	s      sparse.Vector
	dir    sparse.Directory
	hasDir bool
	// back is S̃, S walked back along the path's reverse to the hop before the
	// candidates (metapath.LastHop), from which every numerator N = M_P·S is
	// one row sum: set on a serve pool's miss before the entry is retained
	// (newCandidateSide), nil everywhere else.
	back *metapath.LastHop
	// refs and refVis are PathSim's pairwise inputs with the per-reference
	// visibilities κ(vj,vj) hoisted out of the candidate loop. References
	// with zero visibility are dropped up front: their term is
	// 2·Φ(vi)·Φ(vj)/(κii+0) = 0 for every visible candidate (the dot of
	// anything with an empty vector is +0, and adding +0 to a sum of
	// non-negative terms leaves its bits unchanged), so skipping them is
	// bit-identical.
	refs   []sparse.Vector
	refVis []float64
}

func newRefScorer(m Measure, refs []sparse.Vector) *refScorer {
	var st ShardRefState
	switch m {
	case MeasureNetOut:
		// Ω(vi) = Φ(vi)·S / ‖Φ(vi)‖₂² with S = Σ_{vj∈Sr} Φ(vj).
		st.Agg = sparse.Sum(refs)
	case MeasureCosSim:
		// Σ_j cos(Φi,Φj) = Φi·Σ_j (Φj/‖Φj‖) / ‖Φi‖: separable like NetOut.
		// Each Φj is scaled as Normalize would, in the sum: weight 0 at zero
		// norm.
		inv := make([]float64, len(refs))
		for j, r := range refs {
			if n := r.Norm2(); n != 0 {
				inv[j] = 1 / n
			}
		}
		st.Agg = sparse.WeightedSum(refs, inv)
	case MeasurePathSim:
		st.Refs = make([]sparse.Vector, 0, len(refs))
		st.RefVis = make([]float64, 0, len(refs))
		for _, r := range refs {
			if vis := r.Norm2Sq(); vis > 0 {
				st.Refs = append(st.Refs, r)
				st.RefVis = append(st.RefVis, vis)
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown measure %d", int(m)))
	}
	return st.scorer(m).withDir()
}

// withDir builds S's directory unless rs has one, and returns rs. Only the
// builder of a scorer that has none may call it: every scorer reduced in this
// process gets its directory at once, a shard's (scorersFromRequest) when its
// candidate side is about to dot against it — a propagated path never does.
func (rs *refScorer) withDir() *refScorer {
	if !rs.hasDir {
		rs.dir, rs.hasDir = sparse.NewDirectory(rs.s), true
	}
	return rs
}

// score evaluates one candidate against the precomputed reference side.
// Safe for concurrent use: the receiver is read-only after newRefScorer.
//
// The separable measures take Φ·S and ‖Φ‖² from one pass over Φ
// (sparse.Directory.DotNorm, bit for bit Dot and Norm2Sq) and allocate
// nothing. CosSim divides Φ·S by ‖Φ‖ instead of normalizing Φ first: fewer
// roundings than the oracle's CosSim bound allows for, and the same bits
// whichever body DotNorm runs.
func (rs *refScorer) score(phi sparse.Vector) float64 {
	switch rs.m {
	case MeasureNetOut:
		return netOut(rs.dir.DotNorm(phi))
	case MeasureCosSim:
		dot, vis := rs.dir.DotNorm(phi)
		if vis == 0 {
			return math.NaN()
		}
		return dot / math.Sqrt(vis)
	default: // MeasurePathSim
		vis := phi.Norm2Sq()
		if vis == 0 {
			return math.NaN()
		}
		var sum float64
		for j, r := range rs.refs {
			sum += 2 * phi.Dot(r) / (vis + rs.refVis[j])
		}
		return sum
	}
}

// netOut is Equation (1) for one candidate from its two scalars, the
// connectivity to the reference aggregate Φ·S and the visibility ‖Φ‖²: NaN
// at zero visibility. (A vector of zero norm is empty, so computing its dot
// first costs nothing.)
func netOut(dot, vis float64) float64 {
	if vis == 0 {
		return math.NaN()
	}
	return dot / vis
}

// NormalizedConnectivity returns σ(a,b) = κ(a,b)/κ(a,a) (Definition 9)
// given the neighbor vectors of a and b under the feature meta-path.
// It returns NaN when a has zero visibility.
func NormalizedConnectivity(a, b sparse.Vector) float64 {
	vis := a.Norm2Sq()
	if vis == 0 {
		return math.NaN()
	}
	return a.Dot(b) / vis
}

// PathSim returns the PathSim similarity between two vertices given their
// neighbor vectors: 2κ(a,b)/(κ(a,a)+κ(b,b)), or NaN when both are zero.
func PathSim(a, b sparse.Vector) float64 {
	den := a.Norm2Sq() + b.Norm2Sq()
	if den == 0 {
		return math.NaN()
	}
	return 2 * a.Dot(b) / den
}

// CosSim returns the cosine similarity between two neighbor vectors, or NaN
// when either is zero.
func CosSim(a, b sparse.Vector) float64 {
	den := a.Norm2() * b.Norm2()
	if den == 0 {
		return math.NaN()
	}
	return a.Dot(b) / den
}
