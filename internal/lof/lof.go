// Package lof implements the Local Outlier Factor (Breunig et al., SIGMOD
// 2000) and the kNN-distance outlier score (Ramaswamy et al., SIGMOD 2000)
// over sparse feature vectors. Section 8 of the paper compares NetOut
// against LOF ("they cannot produce better results than NetOut"); these are
// the baselines that comparison needs.
//
// Both algorithms operate on the meta-path neighbor vectors Φ_P(v) that the
// query engine materializes, so they share the candidate/reference sets and
// feature semantics of an outlier query.
package lof

import (
	"fmt"
	"math"
	"sort"

	"netout/internal/sparse"
)

// DistanceFunc measures dissimilarity between two feature vectors.
type DistanceFunc func(a, b sparse.Vector) float64

// Euclidean is the L2 distance between sparse vectors.
func Euclidean(a, b sparse.Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) || j < len(b.Idx) {
		switch {
		case j >= len(b.Idx) || (i < len(a.Idx) && a.Idx[i] < b.Idx[j]):
			s += a.Val[i] * a.Val[i]
			i++
		case i >= len(a.Idx) || a.Idx[i] > b.Idx[j]:
			s += b.Val[j] * b.Val[j]
			j++
		default:
			d := a.Val[i] - b.Val[j]
			s += d * d
			i++
			j++
		}
	}
	return math.Sqrt(s)
}

// Cosine is the cosine distance 1 - cos(a,b); zero vectors are at distance
// 1 from everything (including each other), a convention that keeps LOF
// defined on degenerate inputs.
func Cosine(a, b sparse.Vector) float64 {
	den := a.Norm2() * b.Norm2()
	if den == 0 {
		return 1
	}
	return 1 - a.Dot(b)/den
}

// Options configures the LOF computation.
type Options struct {
	// K is the MinPts neighborhood size. Required, 1 ≤ K < number of points.
	K int
	// Distance defaults to Euclidean.
	Distance DistanceFunc
}

// Scores computes the LOF score of every point against the full point set.
// Scores substantially above 1 indicate outliers (LOF's convention is the
// opposite direction of NetOut's: larger means more outlying).
func Scores(points []sparse.Vector, opts Options) ([]float64, error) {
	n := len(points)
	if opts.K < 1 || opts.K >= n {
		return nil, fmt.Errorf("lof: K must satisfy 1 <= K < len(points); got K=%d with %d points", opts.K, n)
	}
	dist := opts.Distance
	if dist == nil {
		dist = Euclidean
	}

	// Pairwise distances (the data sets here are query-sized candidate
	// sets, so brute force is the right trade-off).
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(points[i], points[j])
			d[i][j], d[j][i] = v, v
		}
	}

	// k-distance and k-neighborhood (all points within the k-distance,
	// which can exceed K when distances tie).
	kdist := make([]float64, n)
	neighbors := make([][]int, n)
	order := make([]int, n-1)
	for i := 0; i < n; i++ {
		order = order[:0]
		for j := 0; j < n; j++ {
			if j != i {
				order = append(order, j)
			}
		}
		sort.Slice(order, func(x, y int) bool { return d[i][order[x]] < d[i][order[y]] })
		kdist[i] = d[i][order[opts.K-1]]
		var nb []int
		for _, j := range order {
			if d[i][j] <= kdist[i] {
				nb = append(nb, j)
			} else {
				break
			}
		}
		neighbors[i] = nb
	}

	// Local reachability density: lrd(i) = 1 / mean reach-dist(i, j) over
	// neighbors j, where reach-dist(i,j) = max(kdist(j), d(i,j)).
	// A zero mean (duplicate points) yields +Inf density.
	lrd := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for _, j := range neighbors[i] {
			sum += math.Max(kdist[j], d[i][j])
		}
		mean := sum / float64(len(neighbors[i]))
		if mean == 0 {
			lrd[i] = math.Inf(1)
		} else {
			lrd[i] = 1 / mean
		}
	}

	// LOF(i) = mean over neighbors of lrd(j)/lrd(i). By the standard
	// convention Inf/Inf (duplicate clusters) counts as 1.
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for _, j := range neighbors[i] {
			switch {
			case math.IsInf(lrd[j], 1) && math.IsInf(lrd[i], 1):
				sum++
			case math.IsInf(lrd[i], 1):
				// Denser than any neighbor: ratio 0.
			default:
				sum += lrd[j] / lrd[i]
			}
		}
		out[i] = sum / float64(len(neighbors[i]))
	}
	return out, nil
}

// KNNScores computes the distance-based outlier score of Ramaswamy et al.:
// the distance from each point to its k-th nearest neighbor. Larger scores
// mean more outlying.
func KNNScores(points []sparse.Vector, k int, dist DistanceFunc) ([]float64, error) {
	n := len(points)
	if k < 1 || k >= n {
		return nil, fmt.Errorf("lof: k must satisfy 1 <= k < len(points); got k=%d with %d points", k, n)
	}
	if dist == nil {
		dist = Euclidean
	}
	out := make([]float64, n)
	ds := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		ds = ds[:0]
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, dist(points[i], points[j]))
			}
		}
		sort.Float64s(ds)
		out[i] = ds[k-1]
	}
	return out, nil
}
