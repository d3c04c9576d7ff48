package core

import (
	"context"
	"strconv"
	"sync"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/oql"
	"netout/internal/xerr"
)

// Execution. Equation (1) makes Ω(v) a function of Φ(v) and the reduced
// reference side only, so every execution of a query is the same thing:
// reduce Sr once (referenceSide), split the ascending candidate set into R
// contiguous ranges, score each range into a bounded top-k (scoreRange), and
// k-way merge. What varies is where a range runs:
//
//   - locally (R = min(the range bound, ⌈|Sc|/128⌉)): one goroutine per range
//     — R = 1 is fanOut's inline case, on the caller's — each on a materializer
//     handle the query borrowed from the engine (borrow), all sharing ONE
//     candidateSide — so the vectors a reference pass over Sr ≡ Sc holds, and
//     the single reverse propagation of a warm scan, serve every range;
//   - remote (WithRemoteShards): one RemoteShard.Call per shard process; the
//     shard server wraps the same scoreRange (ServeShardRequest) around a
//     candidateSide over its own slice.
//
// Determinism contract: for any R, local or remote, Entries and Skipped are
// those of R = 1 bit for bit, and locally so is every vector and cache
// counter.
//
//   - Scores: a candidate's arithmetic reads its own Φ and the reference
//     reduction, nothing else. The reduction is referenceSide's wherever the
//     ranges run: a propagation is one sequential computation, per-vertex
//     loads land in reference-ordered slots whichever view performs them, and
//     the wire ships floats as their IEEE-754 bits.
//   - Ranking: (score, vertex) is a strict total order over a query's
//     candidates (entryBefore), so the global top k and its order are unique,
//     every member of it is in its own range's top k, and mergeRanked
//     reconstructs exactly what one selector over all candidates retains.
//   - Skipped: ranges are contiguous in ascending candidate order, so the
//     skip lists concatenated in range order are the R = 1 skip list.
//   - Counters: the reference side is a barrier, so under the shared cache
//     every (path, vertex) load is classified hit or miss the same for any
//     schedule; traversed/indexed counts are per load, and every R skips the
//     same loads and counts a propagation the same way.
//
// Degradation contract (Engine.degrades is the one place it is decided): under
// every measure a range that hit the deadline or panicked contributes the
// exact prefix of candidates it fully scored — once the reference side is
// reduced, a candidate's score depends only on its own Φ and that reduction —
// and the query completes with Partial=true. A remote reply additionally
// degrades on transport loss, admission shed and remote defects, the network's
// equivalents of a range dying mid-query. Cancellation, protocol skew, any
// other error, an empty total prefix, and every failure of the reference side
// fail the query.

// parallelChunk is how many candidates scoreRange loads, scores and drops at
// a time, and the fewest a local range is worth a goroutine for.
const parallelChunk = 128

// chunksOf is how many chunks n candidates (or references) make.
func chunksOf(n int) int { return (n + parallelChunk - 1) / parallelChunk }

// resolvedQuery is the half of a query's plan that is a function of its text
// over the immutable graph (Engine.resolve builds it, the only place): shared
// read-only by every execution a ServePool serves from its compiled entry.
type resolvedQuery struct {
	q *oql.Query
	// elemType is the vertex type of the candidates, the type Explain and
	// SuggestFeatures look names and alternative paths up under.
	elemType hin.TypeID
	cands    []hin.VertexID
	refs     []hin.VertexID
	paths    []metapath.Path
	weights  []float64
	combine  Combination
	// setRetrieval is what evaluating the sets and resolving the paths took
	// (Timing.SetRetrieval of the execution that did), setWork what the sets'
	// expansions read (metapath.Traverser.Work).
	setRetrieval time.Duration
	setWork      int64
}

// queryPlan carries a query through one execution: what its caller decided
// (compiled, ranges), the resolution once there is one, and what the run
// leaves for the query's record.
type queryPlan struct {
	*resolvedQuery
	// compiled is the serve pool's entry for the query's text: retained (a
	// hit), blank (a miss this execution may fill) or nil (no pool; every
	// method is nil-safe). scorers is what referenceSide reduced Sr to, kept
	// for the entry, worth reduced: what referenceSide's walks read
	// (metapath.Traverser.Work) that a hit does not read again.
	compiled *compiledQuery
	scorers  *queryScorers
	reduced  int64
	// refside is referenceSide's plan line ("" from the compiled entry).
	refside string
	// ranges bounds the local ranges the candidates split into: the engine's
	// QueryParallelism, or inside a pool what the pool allows.
	ranges int
	// kernels is the expansion-kernel hops the run did on its handles.
	kernels metapath.KernelCounts
	// ifq is the query's live in-flight record for phase and chunk-progress
	// updates (nil when no inspector is attached; all mutators are nil-safe).
	ifq *obs.InflightQuery
}

// rangeResult is what scoring one contiguous candidate range produced,
// wherever it ran.
type rangeResult struct {
	// entries is the range's bounded top k, ranked; skipped its candidates no
	// path characterizes, in candidate order. Both cover exactly the first
	// done candidates of the range: all of them, or with err the prefix fully
	// scored before the fault.
	entries []Entry
	skipped []hin.VertexID
	done    int
	err     error
	// cands is the size of the range.
	cands int
	// stats is the work of a range that ran in another process (a local
	// range's is read off its view), plan its plan lines; addr names that
	// process.
	stats MatStats
	plan  []string
	addr  string
	// scoring is the time spent in the outlierness arithmetic, duration the
	// range's wall time.
	scoring, duration time.Duration
}

// scoreRange scores cands[lo:hi] of cs on mat, parallelChunk candidates at a
// time: load, then score and offer to one bounded selector (collect), drop
// the vectors. It is the body of inline execution, of a local range and of a
// shard server's request. Faults never escape it — a panic or a per-vertex
// error comes back on the result beside the exact prefix scored before it (a
// failed load leaves buf covering the candidates complete under every path,
// and those are still scored and kept), so the caller can degrade instead of
// the fault killing the query, or the process.
func scoreRange(ctx context.Context, cs *candidateSide, mat *Materializer, lo, hi, topK int) (rr rangeResult) {
	start := time.Now()
	sel := newTopSelector(topK)
	defer func() {
		rr.entries = sel.ranked()
		rr.duration = time.Since(start)
	}()
	defer recoverAsError(&rr.err)
	buf := candBufs.Get().(*candBuf)
	defer candBufs.Put(buf)
	for ; lo < hi && rr.err == nil; lo += parallelChunk {
		var n int
		n, rr.err = cs.load(ctx, mat, lo, min(lo+parallelChunk, hi), buf)
		scoreStart := time.Now()
		rr.skipped = cs.collect(buf, sel, rr.skipped)
		rr.scoring += time.Since(scoreStart)
		rr.done += n
		cs.ifq.ChunkDone()
	}
	return rr
}

// candBufs recycles scoreRange's chunk scratch across ranges and queries
// (load resets whatever a buffer held).
var candBufs = sync.Pool{New: func() any { return new(candBuf) }}

// fanOut splits vs into n contiguous ranges (hin.PartitionVertices) and runs
// fn on the bounds of each: the last on the calling goroutine — so n = 1 is
// inline — and every other on a goroutine of its own, all joined before it
// returns. fn must recover its own panics — one that escaped a goroutine would
// kill the process.
func fanOut(vs []hin.VertexID, n int, fn func(i, lo, hi int)) {
	if n <= 1 {
		fn(0, 0, len(vs))
		return
	}
	var wg sync.WaitGroup
	lo := 0
	for i, r := range hin.PartitionVertices(vs, n)[:n-1] {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			fn(i, lo, hi)
		}(i, lo, lo+len(r))
		lo += len(r)
	}
	fn(n-1, lo, len(vs))
	wg.Wait()
}

// handles are the materializer handles one query runs on, one per range. A
// handle is a Materializer one goroutine uses at a time: the engine's own, or
// a view of it (NewView) — private traversal scratch and counters over the
// shared index and store. The query that borrowed them is their only user
// until it gives them back, so it may read their counters unsynchronized.
type handles struct {
	mats []*Materializer
	// root says mats[0] is the engine's own materializer.
	root bool
}

// borrow lends the handles a query of n ranges runs on, one per range. The
// engine's own materializer is the first one lent, so a caller running one
// query at a time executes on the materializer it configured; a query that
// finds it taken, and every range after the first, gets a view, recycled
// across queries — a view's traversal scratch is the expensive part of query
// setup.
func (e *Engine) borrow(n int) (hs handles) {
	hs.mats = make([]*Materializer, 0, max(n, 1))
	if hs.root = e.rootLent.CompareAndSwap(false, true); hs.root {
		hs.mats = append(hs.mats, e.mat)
	}
	for len(hs.mats) < cap(hs.mats) {
		view, _ := e.viewPool.Get().(*Materializer)
		if view == nil {
			view = NewView(e.mat)
		}
		hs.mats = append(hs.mats, view)
	}
	return hs
}

// release gives back what borrow lent.
func (e *Engine) release(hs handles) {
	for i, mat := range hs.mats {
		if i == 0 && hs.root {
			e.rootLent.Store(false)
		} else {
			e.viewPool.Put(mat)
		}
	}
}

// work is the cumulative counters of a query's handles. Per-query accounting
// is one rule: the sum over the borrowed handles of after − before.
type work struct {
	mat          MatStats
	hits, misses int64
	kernels      metapath.KernelCounts
	read         int64 // metapath.Traverser.Work
}

// countKernels leaves on the plan the hops done on hs since before.
func (plan *queryPlan) countKernels(hs handles, before metapath.KernelCounts) {
	plan.kernels = hs.work().kernels.Sub(before)
}

func (hs handles) work() (w work) {
	for _, mat := range hs.mats {
		w.mat = w.mat.Add(mat.stats)
		w.hits, w.misses, w.read = w.hits+mat.hits, w.misses+mat.misses, w.read+mat.tr.Work()
		if mat.fill != nil {
			w.read += mat.fill.Work()
		}
		w.kernels = w.kernels.Add(kernelCountsOf(mat))
	}
	return w
}

// run executes a planned query, filling res in place: the reference side
// once, the candidate ranges wherever they run, one degradation rule, one
// merge. Span names are a contract with the dashboards and the benchmark
// harness: local execution records materialize (reference side and the fused
// load+score of every range) → score (empty) → rank (merge); remote execution
// reduce (reference side) → scatter (the shards' work) → merge.
func (e *Engine) run(ctx context.Context, plan *queryPlan, res *Result, tr *obs.Tracer) error {
	cands := plan.cands
	remote := len(e.remotes) > 0
	phase := [3]string{"materialize", "score", "rank"}
	ranges := min(plan.ranges, chunksOf(len(cands)))
	if remote {
		// The reference side alone runs here, on one handle.
		phase, ranges = [3]string{"reduce", "scatter", "merge"}, 1
	}
	hs := e.borrow(ranges)
	// Deferred, so a panicking phase still returns its handles and reports
	// the hops it did on them.
	defer e.release(hs)
	last := hs.work()
	defer plan.countKernels(hs, last.kernels)
	// endPhase closes a span with the work of the query's handles since the
	// last one, plus off: what the phase cost on remote shards.
	endPhase := func(name string, off MatStats) {
		now := hs.work()
		d := now.mat.Sub(last.mat).Add(off)
		res.Timing.charge(d)
		tr.EndPhase(name, obs.SpanStats{
			TraversedVectors: d.TraversedVectors,
			IndexedVectors:   d.IndexedVectors,
			CacheHits:        now.hits - last.hits,
			CacheMisses:      now.misses - last.misses,
		})
		last = now
	}

	// The inspector's chunk progress restarts with each phase that has any: a
	// reader sees "materialize 3/7", then "score 12/40". Updates touch only
	// the record's atomics, never the result.
	plan.ifq.SetPhase(phase[0])
	scorers, held, err := e.referenceSide(ctx, plan, hs)
	if err != nil {
		return err
	}
	plan.scorers = scorers
	if held == nil { // held, the reduction's loads are the candidates': a hit loads them too
		plan.reduced = hs.work().read - last.read
	}
	if plan.refside != "" {
		tr.AddPlan(plan.refside)
	}
	var cs *candidateSide
	var bcast *ShardBroadcast
	if remote {
		bcast = scorers.broadcast(plan.compiled != nil)
		endPhase(phase[0], MatStats{})
	} else {
		// One candidate side over the whole set, shared by every range.
		if cs, err = newCandidateSide(ctx, e.g, hs.mats[0], scorers, e.measure, plan.paths, cands, held); err != nil {
			return err
		}
		cs.ifq = plan.ifq
		for _, line := range cs.plan {
			tr.AddPlan(line)
		}
	}

	plan.ifq.SetPhase(phase[1])
	results := make([]rangeResult, max(len(hs.mats), len(e.remotes)))
	plan.ifq.StartChunks(chunksOf(len(cands)), len(results))
	fanOut(cands, len(results), func(i, lo, hi int) {
		if remote {
			results[i] = e.callRemote(ctx, plan, bcast, i, cands[lo:hi:hi])
		} else {
			results[i] = scoreRange(ctx, cs, hs.mats[i], lo, hi, plan.q.TopK)
		}
		results[i].cands = hi - lo
	})
	var off MatStats
	for _, rr := range results {
		off = off.Add(rr.stats)
		res.Timing.Scoring += rr.scoring
	}
	if !remote {
		// Local ranges fuse loading with scoring, so all of it belongs to the
		// first span and the second stays empty.
		endPhase(phase[0], MatStats{})
	}
	endPhase(phase[1], off)

	plan.ifq.SetPhase(phase[2])
	mergeStart := time.Now()
	totalDone := 0
	var failErr, degradedErr error
	for _, rr := range results {
		totalDone += rr.done
		switch {
		case rr.err == nil:
		case e.degrades(rr.err, remote):
			if xerr.KindOf(rr.err) == xerr.KindDefect {
				res.panics++
			}
			if degradedErr == nil {
				degradedErr = rr.err
			}
		case failErr == nil:
			failErr = rr.err
		}
	}
	if failErr != nil {
		return failErr
	}
	if degradedErr != nil {
		if totalDone == 0 {
			// No range completed a candidate: there is nothing to degrade to,
			// so the first failing range's error stands.
			return degradedErr
		}
		res.Partial = true
	} else if bcast != nil && bcast.Form == RefsKeep {
		// Every shard keeps S now: later broadcasts name it by digest.
		scorers.kept.Store(true)
	}

	// One range's ranking and skip list are the query's as they stand; more
	// are merged, the skip lists concatenated in range order.
	res.Entries, res.Skipped = results[0].entries, results[0].skipped
	if len(results) > 1 {
		lists := make([][]Entry, len(results))
		for i, rr := range results {
			lists[i] = rr.entries
		}
		for _, rr := range results[1:] {
			res.Skipped = append(res.Skipped, rr.skipped...)
		}
		res.Entries = mergeRanked(lists, plan.q.TopK)
	}
	if len(results) > 1 || remote {
		// Per-range accounting, in the shard tier's vocabulary: a local range
		// is a shard without an address.
		for i, rr := range results {
			st := ShardStatus{Shard: i, Addr: rr.addr, Duration: rr.duration,
				Candidates: rr.cands, Done: rr.done, Partial: rr.err != nil}
			if rr.err != nil {
				st.Err = rr.err.Error()
			}
			tr.AddShard(st)
			res.Shards = append(res.Shards, st)
			for _, line := range rr.plan {
				tr.AddPlan("shard " + strconv.Itoa(i) + " " + line)
			}
		}
	}
	endPhase(phase[2], MatStats{})
	res.Timing.Scoring += time.Since(mergeStart)
	return nil
}

// degrades decides whether a failed range folds into an exact-prefix Partial
// instead of failing the query (see the degradation contract above). A lost
// remote shard is operationally the same event as a panicking local range:
// its Done-prefix is exact and the rest of the fleet's work should survive.
// Remote INTERNAL failures that are not defects (protocol-level rejections)
// fail the query: they signal misconfiguration, not load.
func (e *Engine) degrades(err error, remote bool) bool {
	if degradable(err) || xerr.KindOf(err) == xerr.KindDefect {
		return true
	}
	if remote {
		switch xerr.CodeOf(err) {
		case xerr.DeadlineExceeded, xerr.ResourceExhausted, xerr.Unavailable:
			return true
		}
	}
	return false
}

// callRemote runs range i — cands, a slice of the query's candidate set — on
// its remote shard. Whatever the network does comes back as a rangeResult: a
// transport error, a nil reply or a panicking client is a classified failure
// with an empty prefix, a reply stamped with a foreign protocol revision a
// non-degradable one (a mixed-revision fleet's payload cannot be trusted to
// mean what this coordinator thinks it means), and a failure the remote
// reported is rebuilt from its wire triple beside the prefix the reply carried.
func (e *Engine) callRemote(ctx context.Context, plan *queryPlan, bcast *ShardBroadcast, i int, cands []hin.VertexID) rangeResult {
	start := time.Now()
	shard := e.remotes[i]
	req := &ShardRequest{
		Version:    ShardProtocolVersion,
		QueryID:    obs.RequestIDFrom(ctx),
		Shard:      i,
		TopK:       plan.q.TopK,
		Measure:    e.measure,
		Combine:    plan.combine,
		Weights:    plan.weights,
		Paths:      plan.paths,
		Candidates: cands,
		Run:        runOf(e.g, plan.elemType, cands),
	}
	resp, err := func() (resp *ShardResponse, err error) {
		defer recoverAsError(&err)
		return shard.Call(ctx, req, bcast)
	}()
	switch {
	case err != nil:
	case resp == nil:
		err = xerr.Newf(xerr.Unavailable, "core: remote shard %s returned no response", shard.Addr())
	case resp.Version != ShardProtocolVersion:
		err = xerr.Newf(xerr.Internal,
			"core: shard protocol skew: shard %d (%s) replied version %d, coordinator speaks %d",
			i, shard.Addr(), resp.Version, ShardProtocolVersion)
	default:
		return rangeResult{entries: resp.Entries, skipped: resp.Skipped, done: resp.Done,
			stats: resp.Stats, plan: resp.Plan, addr: shard.Addr(), duration: resp.Duration, err: resp.Failure()}
	}
	return rangeResult{err: err, addr: shard.Addr(), duration: time.Since(start)}
}
