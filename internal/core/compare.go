package core

import (
	"fmt"
	"math"

	"netout/internal/hin"
)

// Result comparison utilities quantify the paper's Table 5 observation
// that different judgment criteria produce substantially different
// outliers ("with only one overlapping author") — overlap and rank
// correlation make that claim measurable instead of anecdotal.

// OverlapAtK returns the number of vertices shared by the top-k prefixes of
// two results, and the Jaccard similarity of those prefixes. k is clamped
// to the shorter entry list.
func OverlapAtK(a, b *Result, k int) (shared int, jaccard float64) {
	ka, kb := k, k
	if ka > len(a.Entries) {
		ka = len(a.Entries)
	}
	if kb > len(b.Entries) {
		kb = len(b.Entries)
	}
	inA := make(map[hin.VertexID]bool, ka)
	for _, e := range a.Entries[:ka] {
		inA[e.Vertex] = true
	}
	for _, e := range b.Entries[:kb] {
		if inA[e.Vertex] {
			shared++
		}
	}
	union := ka + kb - shared
	if union == 0 {
		return 0, 1
	}
	return shared, float64(shared) / float64(union)
}

// SpearmanRho computes Spearman's rank correlation between two results over
// the vertices they both rank (candidates skipped by either side are
// excluded). It returns an error when fewer than two vertices are shared.
// ρ=1 means identical orderings, ρ=-1 reversed, ρ≈0 unrelated — the Table 5
// "different viewpoints" effect shows up as low ρ between the venue-judged
// and coauthor-judged rankings.
func SpearmanRho(a, b *Result) (float64, error) {
	rankA := make(map[hin.VertexID]int, len(a.Entries))
	for i, e := range a.Entries {
		rankA[e.Vertex] = i
	}
	var ra, rb []float64
	for i, e := range b.Entries {
		if j, ok := rankA[e.Vertex]; ok {
			ra = append(ra, float64(j))
			rb = append(rb, float64(i))
		}
	}
	n := len(ra)
	if n < 2 {
		return 0, fmt.Errorf("core: results share %d ranked vertices; need at least 2", n)
	}
	// Pearson correlation of the rank sequences (handles the non-contiguous
	// ranks left by the intersection).
	meanA, meanB := mean(ra), mean(rb)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += da * db
		varA += da * da
		varB += db * db
	}
	if varA == 0 || varB == 0 {
		return 0, fmt.Errorf("core: degenerate rankings (no rank variance)")
	}
	return cov / math.Sqrt(varA*varB), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
