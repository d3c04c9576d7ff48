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
// per-vertex loads on all of them. Any failure,
// cancellation and deadline included, fails the query whole: without the
// reduction no candidate can be scored, so there is no prefix to keep.
//
// A plan whose compiled entry holds the reduction — a serve pool computed it
// for this text before, and the graph is immutable — gets that object back
// and loads nothing: it IS what the branches below produce, so scores are
// bit-identical, and held is nil, so the candidates load through the
// materializer as any COMPARED TO query's do. Otherwise two branches, chosen
// from what the code can observe and named by plan.refside: "refside=set", or
// "refside=vertex (<why>)", why the set frontier's first unmet condition:
//
//   - Set-frontier: S = Σ_{vj∈Sr} Φ(vj) by ONE propagation per feature path
//     (metapath.Traverser.SetVector), when S is all the measure needs
//     (NetOut; CosSim and PathSim are not linear in the indicator of Sr),
//     the paths combine after scoring (CombineConcat sums w·Φ, and
//     w·(a+b) ≠ w·a+w·b in floats), and every load of mat is a traversal
//     (setMaterializer). There the propagation never does more work than
//     the loop below, for any Sr. S is Float64bits-identical to the loop's:
//     path counts are integers, exact below 2⁵³, and SetVector reports when
//     a count got there — then this branch is abandoned for the other.
//   - Per-vertex loads + sparse.Sum, for everything else: on a stateful
//     materializer (cached, PM/SPM) a load may be a hit and warms the cache
//     for the candidates. When Sr and Sc are the same set the loaded vectors
//     ARE the candidates' vectors and come back as held (held[m][i] is
//     Φ_paths[m](cands[i])), so the caller scores them instead of loading
//     each vertex a second time; held is nil otherwise. The handles share the
//     loads, a contiguous range of Sr each; slots are reference-ordered, so
//     the sums associate the same for any schedule.
func (e *Engine) referenceSide(ctx context.Context, plan *queryPlan, hs handles) (scorers *queryScorers, held [][]sparse.Vector, err error) {
	if scorers = plan.compiled.memo(); scorers != nil {
		return scorers, nil, nil
	}
	refs, paths := plan.refs, plan.paths
	stride := int32(e.g.NumVertices())
	sm, ok := hs.at(0).(setMaterializer)
	switch {
	case !ok:
		plan.refside = "refside=vertex (materializer)"
	case e.measure != MeasureNetOut:
		plan.refside = "refside=vertex (measure)"
	case plan.combine != CombineAverage:
		plan.refside = "refside=vertex (concat)"
	default:
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
	}
	vecs := make([][]sparse.Vector, len(paths))
	for m := range vecs {
		vecs[m] = make([]sparse.Vector, len(refs))
	}
	errs := make([]error, hs.n)
	plan.ifq.StartChunks(chunksOf(len(refs)), len(errs))
	fanOut(refs, len(errs), func(i, lo, hi int) {
		defer recoverAsError(&errs[i])
		mat := hs.at(i)
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
