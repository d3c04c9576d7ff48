package core

import (
	"context"
	"slices"

	"netout/internal/sparse"
)

// referenceSide reduces the reference set of a planned query to its scorers
// — everything Equation (1) needs from Sr. Query execution, wherever its
// candidate ranges run, and Explain/SuggestFeatures call it, so the
// reduction is written once and their scores and counters agree by
// construction. hs are the caller's handles: a propagation runs on the first,
// per-vertex loads on all of them. Any failure, cancellation and deadline
// included, fails the query whole: without the reduction no candidate can be
// scored, so there is no prefix to keep.
//
// A plan whose compiled entry holds the reduction — a serve pool computed it
// for this text before, and the graph is immutable — gets that object back
// and loads nothing: it IS what the branches below produce, so scores are
// bit-identical, and held is nil. Otherwise two branches, chosen from the
// query's shape alone and named by plan.refside: "refside=set", or
// "refside=vertex (<why>)", why the set frontier's first unmet condition:
//
//   - Set-frontier: S = Σ_{vj∈Sr} Φ(vj) by ONE propagation per feature path
//     (metapath.Traverser.SetVector), when S is all the measure needs (NetOut;
//     CosSim and PathSim are not linear in the indicator of Sr), the paths
//     combine after scoring (CombineConcat sums w·Φ, and w·(a+b) ≠ w·a+w·b in
//     floats), and Sr reaches the crossover (sharedCacheState.need) or the
//     candidates are scored on remote shards. S is Float64bits-identical to
//     the loop's: path counts are integers, exact below 2⁵³, and SetVector
//     reports a count that got there; the other branch then runs.
//   - Per-vertex loads + sparse.Sum otherwise: a set under the crossover
//     whose candidates are scored here, its loads reads wherever a store or
//     an index holds its vectors. When Sr ≡ Sc the loaded vectors ARE the
//     candidates' and come back as held (held[m][i] is Φ_paths[m](cands[i])),
//     one load serving both sides; held is nil otherwise. The handles share
//     the loads, a contiguous range of Sr each, into reference-ordered slots,
//     so the sums associate the same for any schedule.
func (e *Engine) referenceSide(ctx context.Context, plan *queryPlan, hs handles) (scorers *queryScorers, held [][]sparse.Vector, err error) {
	if scorers = plan.compiled.memo(); scorers != nil {
		return scorers, nil, nil
	}
	refs, paths := plan.refs, plan.paths
	stride := int32(e.g.NumVertices())
	sm := hs.mats[0]
	switch {
	case e.measure != MeasureNetOut:
		plan.refside = "refside=vertex (measure)"
	case plan.combine != CombineAverage:
		plan.refside = "refside=vertex (concat)"
	case len(e.remotes) > 0 || len(refs) >= sm.lru.need(paths[0].Source()):
		scorers = &queryScorers{weights: plan.weights, stride: stride, perPath: make([]*refScorer, len(paths))}
		exact := true
		for m := 0; m < len(paths) && exact; m++ {
			var s sparse.Vector
			if s, exact, err = sm.setVector(ctx, paths[m], refs); err != nil {
				return nil, nil, err
			}
			scorers.perPath[m] = ShardRefState{Agg: s}.scorer(MeasureNetOut).withDir()
		}
		if exact {
			plan.refside = "refside=set"
			return scorers, nil, nil
		}
		plan.refside = "refside=vertex (2^53)"
	case slices.Equal(refs, plan.cands):
		plan.refside = "refside=vertex (held)"
	default:
		plan.refside = "refside=vertex (small)"
	}
	vecs := make([][]sparse.Vector, len(paths))
	for m := range vecs {
		vecs[m] = make([]sparse.Vector, len(refs))
	}
	errs := make([]error, len(hs.mats))
	plan.ifq.StartChunks(chunksOf(len(refs)), len(errs))
	fanOut(refs, len(errs), func(i, lo, hi int) {
		defer recoverAsError(&errs[i])
		mat := hs.mats[i]
		for ; lo < hi; lo += parallelChunk {
			end := min(lo+parallelChunk, hi)
			for m := range paths {
				for j := lo; j < end; j++ {
					if errs[i] = ctxErr(ctx); errs[i] != nil {
						return
					}
					if vecs[m][j], errs[i] = mat.NeighborVector(paths[m], refs[j]); errs[i] != nil {
						return
					}
				}
			}
			plan.ifq.ChunkDone()
		}
	})
	for _, rangeErr := range errs {
		if rangeErr != nil {
			return nil, nil, rangeErr // the first failing range's, by index
		}
	}
	scorers = newQueryScorers(e.measure, plan.combine, vecs, plan.weights, stride)
	if slices.Equal(refs, plan.cands) {
		held = vecs
	}
	return scorers, held, nil
}
