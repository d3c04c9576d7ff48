package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"netout/internal/hin"
	"netout/internal/oql"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// Progressive query execution implements the extension sketched in
// Section 8: "the system could find the approximate top-k outliers, with
// confidences, while the query is being processed so that users can
// determine whether to continue processing the query."
//
// NetOut is a sum over the reference set, Ω(vi) = Σ_{vj∈Sr} σ(vi,vj), so a
// uniform random sample of Sr yields an unbiased estimator
// Ω̂(vi) = (|Sr|/m)·Σ_{sampled} σ(vi,vj). The executor processes the
// (shuffled) reference set in chunks; after each chunk it reports the
// current top-k estimates with a CLT confidence half-width computed over
// the per-chunk contributions. The estimate is exact once every reference
// vertex has been processed.

// ProgressiveEstimate is one candidate's running estimate.
type ProgressiveEstimate struct {
	Vertex hin.VertexID
	Name   string
	// Score is the current unbiased estimate of Ω.
	Score float64
	// HalfWidth is the ~95% confidence half-width of Score (0 when the
	// estimate is exact or too few chunks have been seen to estimate
	// variance).
	HalfWidth float64
}

// ProgressiveSnapshot reports the state after one chunk of the reference
// set has been processed.
type ProgressiveSnapshot struct {
	// ProcessedRefs and TotalRefs track reference-set progress.
	ProcessedRefs, TotalRefs int
	// Exact is true on the final snapshot, when all references have been
	// processed and scores equal the non-progressive execution exactly.
	Exact bool
	// TopK holds the current best estimates, most outlying first,
	// truncated to the query's TOP k (all candidates if the query has none).
	TopK []ProgressiveEstimate
}

// ProgressiveOptions configures ExecuteProgressive.
type ProgressiveOptions struct {
	// ChunkSize is the number of reference vertices processed between
	// snapshots (default 64).
	ChunkSize int
	// Seed shuffles the reference set (default 1). Any seed yields an
	// unbiased sample order.
	Seed int64
	// OnSnapshot, if set, receives every snapshot; returning false stops
	// processing early and the last snapshot's estimates are returned.
	OnSnapshot func(ProgressiveSnapshot) bool
}

// StopWhenStable returns an OnSnapshot callback that stops processing once
// the identity of the top-k estimates has not changed for `rounds`
// consecutive snapshots — an automatic answer to the paper's "users can
// determine whether to continue processing the query". Wrap an existing
// callback to observe snapshots too (inner may be nil).
func StopWhenStable(k, rounds int, inner func(ProgressiveSnapshot) bool) func(ProgressiveSnapshot) bool {
	if k < 1 {
		k = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	var prev []hin.VertexID
	stable := 0
	return func(s ProgressiveSnapshot) bool {
		if inner != nil && !inner(s) {
			return false
		}
		n := k
		if n > len(s.TopK) {
			n = len(s.TopK)
		}
		cur := make([]hin.VertexID, n)
		for i := 0; i < n; i++ {
			cur[i] = s.TopK[i].Vertex
		}
		same := len(cur) == len(prev)
		if same {
			for i := range cur {
				if cur[i] != prev[i] {
					same = false
					break
				}
			}
		}
		if same {
			stable++
		} else {
			stable = 0
			prev = cur
		}
		return stable < rounds
	}
}

// ExecuteProgressive runs a query progressively. It supports single-feature
// queries under the NetOut measure (the separable sum the estimator needs);
// multi-feature queries are combined with CombineConcat semantics, which
// also reduce to a single separable sum.
//
// The returned result's entries come from the last snapshot taken; they are
// exact if processing was not stopped early (Result.Partial marks results
// built from a non-final snapshot).
func (e *Engine) ExecuteProgressive(src string, opts ProgressiveOptions) (*Result, error) {
	return e.ExecuteProgressiveContext(context.Background(), src, opts)
}

// ExecuteProgressiveContext is ExecuteProgressive with cancellation, checked
// at per-vertex granularity like the engine's other executors. A deadline
// that expires after at least one snapshot degrades gracefully: the last
// snapshot's estimates are returned with Result.Partial=true (the
// progressive estimator exists precisely to have a usable answer at every
// prefix); cancellation and pre-snapshot deadlines return the context error.
func (e *Engine) ExecuteProgressiveContext(ctx context.Context, src string, opts ProgressiveOptions) (*Result, error) {
	q, err := oql.Parse(src)
	if err != nil {
		return nil, err
	}
	if e.measure != MeasureNetOut {
		return nil, xerr.Newf(xerr.InvalidArgument, "core: progressive execution supports the NetOut measure only (engine uses %s)", e.measure)
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 64
	}
	start := time.Now()
	plan, err := e.resolve(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	cands, refs, paths := plan.cands, plan.refs, plan.paths
	res := &Result{CandidateCount: len(cands), ReferenceCount: len(refs)}
	res.Timing.SetRetrieval = plan.setRetrieval

	hs, err := e.borrow(1)
	if err != nil {
		return nil, err
	}
	defer e.release(hs)
	// A vertex's vector, concatenated across features when there are several.
	stride := int32(e.g.NumVertices())
	one := make([]sparse.Vector, len(paths))
	combinedVec := func(v hin.VertexID) (sparse.Vector, error) {
		for m, p := range paths {
			vec, err := hs.mats[0].NeighborVector(p, v)
			if err != nil {
				return sparse.Vector{}, err
			}
			one[m] = vec
		}
		if len(paths) == 1 {
			return one[0], nil
		}
		return concatOne(one, plan.weights, stride), nil
	}

	candVecs := make([]sparse.Vector, len(cands))
	visibility := make([]float64, len(cands))
	for i, v := range cands {
		// No degradation here: without every candidate's Φ there are no
		// estimates at all, so a context error is a hard stop.
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if candVecs[i], err = combinedVec(v); err != nil {
			return nil, err
		}
		visibility[i] = candVecs[i].Norm2Sq()
		if visibility[i] == 0 {
			res.Skipped = append(res.Skipped, v)
		}
	}

	// Shuffle the reference set for unbiased sampling.
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})

	n := len(refs)
	processed := 0
	partialSum := make([]float64, len(cands)) // Σ per-reference dot contributions
	chunkSumSq := make([]float64, len(cands)) // Σ (per-ref contribution)² for variance
	var lastSnapshot ProgressiveSnapshot

	emit := func() bool {
		exact := processed == n
		snap := ProgressiveSnapshot{
			ProcessedRefs: processed,
			TotalRefs:     n,
			Exact:         exact,
		}
		ests := make([]ProgressiveEstimate, 0, len(cands))
		for i, v := range cands {
			if visibility[i] == 0 {
				continue
			}
			mean := partialSum[i] / float64(processed)
			est := mean * float64(n) / visibility[i]
			if exact {
				est = partialSum[i] / visibility[i]
			}
			hw := 0.0
			if !exact && processed > 1 {
				// Sample variance of per-reference contributions, scaled to
				// the full-population sum, with finite-population correction.
				varC := (chunkSumSq[i] - float64(processed)*mean*mean) / float64(processed-1)
				if varC > 0 {
					fpc := float64(n-processed) / float64(n-1)
					hw = 1.96 * float64(n) * math.Sqrt(varC/float64(processed)*fpc) / visibility[i]
				}
			}
			ests = append(ests, ProgressiveEstimate{
				Vertex: v, Name: e.g.Name(v), Score: est, HalfWidth: hw,
			})
		}
		sort.Slice(ests, func(a, b int) bool {
			if ests[a].Score != ests[b].Score {
				return ests[a].Score < ests[b].Score
			}
			return ests[a].Vertex < ests[b].Vertex
		})
		if q.TopK > 0 && len(ests) > q.TopK {
			ests = ests[:q.TopK]
		}
		snap.TopK = ests
		lastSnapshot = snap
		if opts.OnSnapshot != nil {
			return opts.OnSnapshot(snap)
		}
		return true
	}

sample:
	for processed < n {
		chunkEnd := processed + opts.ChunkSize
		if chunkEnd > n {
			chunkEnd = n
		}
		// Per-reference contributions, tracked per candidate so the
		// variance (and hence the confidence half-width) is available.
		// Progressive mode therefore pays the O(|Sr|·|Sc|) pairwise cost
		// that Equation (1) avoids — the price of confidence intervals.
		for _, j := range order[processed:chunkEnd] {
			if err := ctxErr(ctx); err != nil {
				if degradable(err) && processed > 0 {
					// Graceful degradation: the estimates at the last chunk
					// boundary are already an unbiased answer — return them
					// flagged Partial instead of the bare deadline error.
					// The in-flight chunk's partialSum contributions are
					// harmless: lastSnapshot was sealed before them.
					break sample
				}
				return nil, err
			}
			refVec, err := combinedVec(refs[j])
			if err != nil {
				return nil, err
			}
			for i := range cands {
				if visibility[i] == 0 {
					continue
				}
				c := candVecs[i].Dot(refVec)
				partialSum[i] += c
				chunkSumSq[i] += c * c
			}
		}
		processed = chunkEnd
		if !emit() {
			break
		}
	}

	res.Entries = make([]Entry, len(lastSnapshot.TopK))
	for i, est := range lastSnapshot.TopK {
		res.Entries[i] = Entry{Vertex: est.Vertex, Name: est.Name, Score: est.Score}
	}
	// An early stop — deadline degradation above or OnSnapshot returning
	// false — leaves the estimates inexact; surface that the same way the
	// deadline-degraded engine paths do.
	res.Partial = processed < n
	res.Timing.Total = time.Since(start)
	return res, nil
}
