package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"netout/internal/hin"
	"netout/internal/oql"
	"netout/internal/sparse"
)

// Progressive query execution implements the extension sketched in
// Section 8: "the system could find the approximate top-k outliers, with
// confidences, while the query is being processed so that users can
// determine whether to continue processing the query."
//
// Every measure is a sum over the reference set (Definitions 9–10), and so is
// every combination of them, so the score of a candidate against a chunk S_c
// of Sr — the query's own reduction (referenceSide) of S_c, scored by its own
// scorers (queryScorers.score) — is a term Ω_c of Ω = Σ_c Ω_c. The executor
// walks the shuffled reference set a chunk at a time; after K of the n/B
// chunks of B references it reports the top k of the unbiased estimate
// Ω̂ = (n/KB)·Σ_c Ω_c with a CLT half-width over the chunk scores. The
// snapshot that completes Sr reduces the whole of it instead of its last
// chunk, so its scores are Execute's bit for bit.

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
	k, rounds = max(k, 1), max(rounds, 1)
	var prev []hin.VertexID
	stable := 0
	return func(s ProgressiveSnapshot) bool {
		if inner != nil && !inner(s) {
			return false
		}
		cur := make([]hin.VertexID, min(k, len(s.TopK)))
		for i := range cur {
			cur[i] = s.TopK[i].Vertex
		}
		if slices.Equal(cur, prev) {
			stable++
		} else {
			stable, prev = 0, cur
		}
		return stable < rounds
	}
}

// ExecuteProgressive runs a query progressively, under the engine's measure
// and combination.
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
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	start := time.Now()
	plan, err := e.resolve(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	cands, n := plan.cands, len(plan.refs)
	res := &Result{CandidateCount: len(cands), ReferenceCount: n}
	res.Timing.SetRetrieval = plan.setRetrieval

	hs := e.borrow(1)
	defer e.release(hs)
	// Every candidate's Φ, loaded once and held for every snapshot. No
	// degradation here: without every candidate there are no estimates at
	// all, so a context error is a hard stop.
	cs := &candidateSide{g: e.g, paths: plan.paths, cands: cands}
	var buf candBuf
	if _, err := cs.load(ctx, hs.mats[0], 0, len(cands), &buf); err != nil {
		return nil, err
	}

	shuffled := slices.Clone(plan.refs)
	rand.New(rand.NewSource(opts.Seed)).Shuffle(n, func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// sum and sumSq are Σ_c Ω_c and Σ_c Ω_c² per candidate; a snapshot's
	// sample is its K chunks out of a population of n/B.
	sum, sumSq := make([]float64, len(cands)), make([]float64, len(cands))
	pop := float64(n) / float64(opts.ChunkSize)
	halfWidth := func(i, k int) float64 {
		if k < 2 {
			return 0
		}
		kf := float64(k)
		mean := sum[i] / kf
		v := (sumSq[i] - kf*mean*mean) / (kf - 1)
		if v <= 0 {
			return 0
		}
		return 1.96 * pop * math.Sqrt(v/kf*(pop-kf)/(pop-1))
	}
	// chunk is the query with the snapshot's S_c for Sr.
	chunk := *plan
	sub := &queryPlan{resolvedQuery: &chunk}
	one := make([]sparse.Vector, len(plan.paths))
	processed := 0
	for {
		end := min(processed+opts.ChunkSize, n)
		chunk.refs = plan.refs
		if end < n {
			chunk.refs = shuffled[processed:end]
			slices.Sort(chunk.refs) // the chunks are disjoint
		}
		scorers, _, err := e.referenceSide(ctx, sub, hs)
		if err != nil {
			if degradable(err) && processed > 0 {
				// The last snapshot's estimates are already an unbiased
				// answer: return them flagged Partial.
				break
			}
			return nil, err
		}
		processed = end
		exact := processed == n
		sel := newTopSelector(q.TopK)
		var skipped []hin.VertexID
		for i, v := range cands {
			for m := range one {
				one[m] = buf.vecs[m][i]
			}
			s, ok := scorers.score(one)
			if !ok {
				skipped = append(skipped, v)
				continue
			}
			if !exact {
				sum[i] += s
				sumSq[i] += s * s
				s = sum[i] * float64(n) / float64(processed)
			}
			sel.push(Entry{Vertex: v, Score: s})
		}
		res.Entries, res.Skipped = sel.ranked(), skipped
		snap := ProgressiveSnapshot{ProcessedRefs: processed, TotalRefs: n, Exact: exact,
			TopK: make([]ProgressiveEstimate, len(res.Entries))}
		for j := range res.Entries {
			en := &res.Entries[j]
			en.Name = e.g.Name(en.Vertex)
			snap.TopK[j] = ProgressiveEstimate{Vertex: en.Vertex, Name: en.Name, Score: en.Score}
			if !exact {
				i, _ := slices.BinarySearch(cands, en.Vertex)
				snap.TopK[j].HalfWidth = halfWidth(i, processed/opts.ChunkSize)
			}
		}
		if opts.OnSnapshot != nil && !opts.OnSnapshot(snap) || exact {
			break
		}
	}
	// An early stop — deadline degradation above or OnSnapshot returning
	// false — leaves the estimates inexact; surface that the same way the
	// deadline-degraded engine paths do.
	res.Partial = processed < n
	res.Timing.Total = time.Since(start)
	return res, nil
}
