package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/oql"
)

// Chunked intra-query pipeline. A query's candidates are independent of each
// other once the reference side is fixed — Ω(vi) reads Φ(vi) and the
// reference aggregate only — so the candidate set splits into fixed-size
// chunks and a worker pool runs materialize→score FUSED per chunk: each
// worker loads a chunk through the query's candidateSide on its own
// materializer view, scores it, feeds its bounded top-n selector, and drops
// the vectors before touching the next chunk. The reference side
// comes first and is referenceSide's: one propagation per feature path on
// the engine's own baseline (O(1) vectors held), or per-vertex loads shared
// among the workers chunk by chunk (O(|Sr|) vectors held until the scorers
// are built — and, when Sr is Sc, through the candidate phase, whose chunks
// are then scored straight out of them with nothing loaded twice). Peak
// memory is O(workers·chunk + |Sr|) vectors instead of O(|Sc|·paths), and a
// query uses every core instead of one.
//
// Determinism contract: for any worker count the pipeline produces the SAME
// Result as the sequential path — Entries bit-identical, Skipped identical,
// every vector/cache counter identical. The arguments, relied on by the
// property tests:
//
//   - Scores: each candidate's arithmetic touches only its own Φ and the
//     reference precompute. Both executors get that precompute from
//     referenceSide: a propagation is one sequential computation, and
//     per-vertex loads land in reference-ordered slots whichever worker
//     performs them, so the scorers sum them in the sequential path's
//     association; per-candidate score = same ops in the same order ⇒ same
//     bits.
//   - Ranking: (score, vertex) is a strict total order over candidates, so
//     the top-k set and its sorted order are unique; per-worker bounded
//     selection + merge always reconstructs them (a global top-k entry is
//     necessarily in its worker's top-k).
//   - Counters: the reference phase is a barrier, so under the shared cache
//     every (path, vertex) load is classified hit/miss identically for any
//     schedule; traversal/indexed counts are per-load and order-free, and
//     both executors skip the same loads (the second pass over Sr = Sc) and
//     count a propagation the same way (one traversed vector per path).
const parallelChunk = 128

// queryPlan carries a resolved query between the planner and an executor.
type queryPlan struct {
	q       *oql.Query
	cands   []hin.VertexID
	refs    []hin.VertexID
	paths   []metapath.Path
	weights []float64
	combine Combination
	// workers are the chunk pipeline's workers when it executes the plan
	// (nil otherwise): referenceSide shares its per-vertex loads among them.
	workers []*pipeWorker
	// viewKernels sums the expansion-kernel deltas of the views that worked
	// for the query (pipeline workers, in-process shards); the engine's own
	// traverser is read directly (executeQuery).
	viewKernels metapath.KernelCounts
	// ifq is the query's live in-flight record for phase and chunk-progress
	// updates (nil when no inspector is attached; all mutators are nil-safe).
	ifq *obs.InflightQuery
}

// pipeWorker is one pipeline worker's private state.
type pipeWorker struct {
	mat Materializer // view of the engine's materializer (NewView)
	// base and kernels are the view's counters at acquisition, for delta
	// aggregation.
	base    MatStats
	kernels metapath.KernelCounts
	sel     *topSelector
	buf     candBuf // reusable chunk scratch
	scoreNs int64
}

// pipelineWorkers decides whether the parallel pipeline applies and builds
// its workers. It declines — falling back to the sequential path — when the
// engine's parallelism is 1, when the candidate set is too small to fill
// more than one chunk, or when the materializer has no concurrent view.
func (e *Engine) pipelineWorkers(nCands int) ([]*pipeWorker, bool) {
	n := e.QueryParallelism()
	if n <= 1 || nCands <= parallelChunk {
		return nil, false
	}
	if chunks := (nCands + parallelChunk - 1) / parallelChunk; n > chunks {
		n = chunks
	}
	ws := make([]*pipeWorker, 0, n)
	for i := 0; i < n; i++ {
		w, _ := e.workerPool.Get().(*pipeWorker)
		if w == nil {
			view, err := NewView(e.mat)
			if err != nil {
				e.releaseWorkers(ws)
				return nil, false
			}
			w = &pipeWorker{mat: view}
		}
		// Re-snapshot at acquisition: a recycled worker's view has
		// accumulated stats from earlier queries.
		w.base = w.mat.Stats()
		w.kernels, _ = kernelCountsOf(w.mat)
		w.scoreNs = 0
		ws = append(ws, w)
	}
	return ws, true
}

// releaseWorkers hands workers back to the engine's pool once a query is
// done with them (runChunks joins all goroutines before returning, so no
// worker is in flight here). Selectors are dropped — they reference result
// entries — while views and chunk scratch are kept for the next query.
func (e *Engine) releaseWorkers(ws []*pipeWorker) {
	for _, w := range ws {
		w.sel = nil
		e.workerPool.Put(w)
	}
}

// runChunks fans [0, n) out to the workers in parallelChunk-sized chunks
// claimed off an atomic cursor. fn must write only worker-private state and
// shared slots inside its own [lo, hi) — chunk ranges are disjoint, so such
// writes never race. On error the other workers stop at their next chunk
// boundary; the first failing worker's error (by worker index) is returned.
// A panicking fn is recovered into a *PanicError chunk failure: the panic
// never crosses the goroutine boundary (which would kill the process — a
// worker goroutine's panic is unrecoverable by the query's caller), and
// runChunks still joins every worker before returning.
func runChunks(ws []*pipeWorker, n int, fn func(w *pipeWorker, lo, hi int) error) error {
	nChunks := (n + parallelChunk - 1) / parallelChunk
	var cursor atomic.Int64
	var failed atomic.Bool
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *pipeWorker) {
			defer wg.Done()
			for !failed.Load() {
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				hi := min((c+1)*parallelChunk, n)
				err := func() (err error) {
					defer recoverAsError(&err)
					return fn(w, c*parallelChunk, hi)
				}()
				if err != nil {
					errs[wi] = err
					failed.Store(true)
					return
				}
			}
		}(wi, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// executeParallel runs the materialize/score/rank phases of a planned query
// on the chunked pipeline, filling res in place. The trace receives the
// same phase sequence as the sequential path (materialize → score → rank);
// scoring is fused into the materialize span's wall time, so the score span
// is recorded (near-)empty with the counters aggregated across workers.
func (e *Engine) executeParallel(ctx context.Context, plan *queryPlan, res *Result, tr *obs.Tracer) error {
	cands, paths, ws := plan.cands, plan.paths, plan.workers
	matBefore := e.mat.Stats()
	cacheBefore, _ := CacheStatsOf(e.mat)
	// Views of the cached materializer share its counters, so per-view
	// deltas would count every load len(ws) times; the whole-phase delta on
	// the engine's own materializer covers them. Baseline/PM/SPM views carry
	// private stats: the per-worker deltas are added to it.
	_, statsShared := e.mat.(*cached)

	// Reference phase (a barrier: scoring needs all of Sr). The inspector's
	// chunk progress resets per chunked phase: a reader sees
	// "materialize:refs 3/7" then "materialize 12/40". Updates touch only the
	// record's atomics — never the result — so determinism is unaffected.
	plan.ifq.SetPhase("materialize:refs")
	scorers, held, err := e.referenceSide(ctx, plan, e.mat)
	if err != nil {
		return err
	}

	// Candidate phase: fused materialize→score per chunk — or, when the
	// reference pass already holds the candidates' vectors, score alone. A
	// chunk's skip list is written at the chunk's own slot; everything else
	// a worker touches is its own.
	cs, err := newCandidateSide(ctx, e.g, e.mat, scorers, e.measure, paths, cands, held)
	if err != nil {
		return err
	}
	for _, w := range ws {
		w.sel = newTopSelector(plan.q.TopK)
	}
	// A chunk reaches its selector and its skip list only once it is fully
	// loaded, so after a failure both hold exactly the chunks that finished:
	// when a deadline expires mid-phase those carry exact scores (NetOut is
	// separable per candidate) and form the partial result.
	nChunks := (len(cands) + parallelChunk - 1) / parallelChunk
	skipped := make([][]hin.VertexID, nChunks)
	plan.ifq.SetPhase("materialize")
	plan.ifq.StartChunks(nChunks, len(ws))
	err = runChunks(ws, len(cands), func(w *pipeWorker, lo, hi int) error {
		if _, err := cs.load(ctx, w.mat, lo, hi, &w.buf); err != nil {
			return err
		}
		start := time.Now()
		cs.score(&w.buf)
		skipped[lo/parallelChunk] = cs.collect(&w.buf, w.sel, nil)
		w.scoreNs += time.Since(start).Nanoseconds()
		plan.ifq.ChunkDone()
		return nil
	})
	if err != nil {
		if e.measure != MeasureNetOut || !degradable(err) {
			return err
		}
		res.Partial = true
	}

	d := e.mat.Stats().Sub(matBefore)
	if !statsShared {
		for _, w := range ws {
			d = d.Add(w.mat.Stats().Sub(w.base))
		}
	}
	for _, w := range ws {
		if after, ok := kernelCountsOf(w.mat); ok {
			plan.viewKernels = plan.viewKernels.Add(after.Sub(w.kernels))
		}
	}
	res.Timing.charge(d)
	cacheAfter, _ := CacheStatsOf(e.mat)
	tr.EndPhase("materialize", obs.SpanStats{
		TraversedVectors: d.TraversedVectors,
		IndexedVectors:   d.IndexedVectors,
		CacheHits:        cacheAfter.Hits - cacheBefore.Hits,
		CacheMisses:      cacheAfter.Misses - cacheBefore.Misses,
	})
	// Scoring ran fused inside the materialize span; keep the phase sequence
	// intact with an empty score span.
	tr.EndPhase("score", obs.SpanStats{})
	plan.ifq.SetPhase("rank")

	rankStart := time.Now()
	sel := ws[0].sel
	for _, w := range ws[1:] {
		sel.merge(w.sel)
	}
	// Skipped means "characterized by no feature path", a judgment only
	// possible for candidates in chunks that actually ran; on a partial
	// result the unreached chunks' candidates are simply absent.
	for _, chunk := range skipped {
		res.Skipped = append(res.Skipped, chunk...)
	}
	res.Entries = sel.ranked()
	tr.EndPhase("rank", obs.SpanStats{})
	var scoreNs int64
	for _, w := range ws {
		scoreNs += w.scoreNs
	}
	res.Timing.Scoring += time.Duration(scoreNs) + time.Since(rankStart)
	return nil
}
