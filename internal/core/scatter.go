package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// The scatter–gather shard tier (ROADMAP item 1). The candidate side of a
// query partitions into S contiguous target-type vertex ranges; each shard —
// a resident goroutine in-process, or a shard process behind a RemoteShard
// client — owns its own materializer view (a private arena view for PM/SPM,
// a warm-shared handle for the cached strategy) and scores its local
// candidates with the fused materialize+score loop into a bounded top-n
// heap. The reference side reduces ONCE on the coordinator, through the same
// referenceSide unsharded execution uses — one propagation per feature path
// on a baseline coordinator, per-vertex loads otherwise — and is broadcast
// read-only (in-process as a shared pointer; over the wire as a
// ShardBroadcast). Shards score candidates elsewhere, so unlike the
// unsharded executors the tier never reuses the reference vectors for
// Sr = Sc: each shard loads its own. The coordinator then performs a
// deterministic k-way merge of the per-shard rankings under the established
// (score, vertex) total order.
//
// Determinism contract, mirroring pipeline.go: for any shard count — local
// or remote — the sharded execution produces the SAME Entries and Skipped as
// unsharded execution, bit for bit.
//
//   - Scores: the reference reduction is referenceSide's, the function the
//     sequential path reduces with, so the broadcast aggregate is the same
//     bits by construction; each candidate's
//     combination arithmetic (queryScorers.score) replicates the sequential
//     operations operation for operation, and no arithmetic ever crosses
//     candidates. The wire codec ships floats as their exact IEEE-754 bits
//     (math.Float64bits), so crossing a network boundary changes nothing.
//   - Ranking: (score, vertex) is a strict total order over a query's
//     candidates (entryBefore), so the global top-k set and its sorted
//     order are unique, and a k-way merge of per-shard bounded top-k lists
//     reconstructs exactly what one selector over all candidates retains.
//   - Skipped: shard ranges are contiguous in the ascending candidate
//     order, so concatenating per-shard skip lists in shard order is the
//     sequential skip order.
//
// Degradation contract, mirroring guard.go: a shard whose execution expires
// its deadline or panics contributes the exact prefix of candidates it
// fully scored (NetOut only — prefix scores are exact because the measure
// is separable once the broadcast reference aggregate is fixed) and the
// query completes with Result.Partial=true plus per-shard accounting in
// Result.Shards, instead of failing. A REMOTE shard additionally degrades
// on transport loss and overload (UNAVAILABLE, RESOURCE_EXHAUSTED, and
// remote defects — the network tier's equivalents of a shard dying
// mid-query): its prefix is whatever the reply carried, possibly empty.
// Cancellation never degrades, protocol skew always fails the query, and
// non-degradable shard errors still fail it. Unlike unsharded execution, a
// panic is isolated to the shard it struck: the other shards' work is exact
// and is returned.

// ShardProtocolVersion is the protocol revision stamped on every
// ShardRequest and ShardResponse. The structs below are deliberately
// transport-agnostic — plain data, no channels, no engine internals in the
// exported fields — and internal/shardnet serializes exactly these messages
// across the process boundary; the version field is how a mixed-revision
// fleet detects skew instead of silently mis-merging. Version 2 added the
// Kind field to ShardResponse (v1 was the PR 9 in-process protocol and
// never had a serialized form, so there is no v1 peer to interoperate
// with). Both sides enforce the version: a shard server rejects a request
// stamped with a foreign version, and the coordinator's gather loop fails
// the query on a reply that does not echo its own.
const ShardProtocolVersion = 2

// ShardRequest is one shard's share of a scattered query: the full scoring
// configuration plus the shard's contiguous slice of the ascending
// candidate set. The reference side is NOT in the request — it reduces once
// on the coordinator and is broadcast alongside (in-process as the shared
// read-only queryScorers; over the wire as the ShardBroadcast, one
// aggregate vector per feature path for the separable measures, the
// visibility-filtered reference vectors for PathSim).
type ShardRequest struct {
	Version int
	// QueryID is the serving layer's request ID ("" outside serving).
	QueryID string
	// Shard is the target shard index in [0, S).
	Shard int
	// TopK bounds the shard's local selection (0 = unbounded); the
	// coordinator merges per-shard top-k lists into the global top k.
	TopK    int
	Measure Measure
	Combine Combination
	Weights []float64
	Paths   []metapath.Path
	// Candidates is this shard's contiguous range of the query's candidate
	// set. Ranges across shards are disjoint and cover the set in ascending
	// vertex order (hin.PartitionVertices).
	Candidates []hin.VertexID
}

// ShardResponse is one shard's reply: its local ranking plus the exact
// progress accounting the coordinator needs to merge or degrade.
type ShardResponse struct {
	Version int
	QueryID string
	Shard   int
	// Entries is the shard's bounded top-k over the candidates it scored,
	// ranked ascending under the (score, vertex) total order.
	Entries []Entry
	// Skipped lists processed candidates with zero visibility under every
	// feature path, in candidate order.
	Skipped []hin.VertexID
	// Candidates echoes the size of the shard's slice; Done counts the
	// candidates fully scored. On a clean run Done == Candidates; on a fault
	// Entries and Skipped cover exactly the Done-prefix, which is what a
	// degraded merge keeps.
	Candidates, Done int
	// Err, Code and Kind classify a shard failure ("" / zero on success).
	// The typed in-process error (e.g. *PanicError with its stack) travels
	// alongside for same-process callers; a network transport ships only
	// these three fields and the coordinator reconstructs a classified
	// error with xerr.FromWire — Kind is what lets a remote defect (a shard
	// panic whose *PanicError cannot cross the wire) keep degrading like a
	// local one.
	Err  string
	Code xerr.Code
	Kind xerr.Kind
	// Stats is the shard's materializer delta for this request. For the
	// shared cached strategy the counters are global across shards and the
	// coordinator uses a whole-phase delta instead.
	Stats MatStats
	// Duration is the shard's wall time for this request.
	Duration time.Duration

	err error
	// kernels is the shard's expansion-kernel delta for this request. It has
	// no wire form: only in-process shards report it.
	kernels metapath.KernelCounts
	// remote and addr mark a reply that crossed a process boundary; the
	// coordinator widens the degradation rule for those (transport loss and
	// overload fold into Partial) and stamps the address into the per-shard
	// accounting.
	remote bool
	addr   string
}

// ShardBroadcast is the reference reduction in wire form: everything a
// shard needs from the reference side, already reduced on the coordinator
// so the O(|Sr|) work happens once per query, not once per shard. For
// NetOut/CosSim each entry is a single aggregate vector (Equation (1) is
// separable); for PathSim it is the visibility-filtered reference vectors
// with their hoisted self-visibilities. CombineConcat broadcasts one entry
// over the concatenated space; CombineAverage one entry per feature path.
type ShardBroadcast struct {
	// Stride is the concatenation stride (the coordinator graph's vertex
	// count), needed by CombineConcat to rebuild candidate concatenation
	// with the same index arithmetic.
	Stride int32
	Refs   []ShardRefState
}

// ShardRefState is one refScorer's broadcastable state.
type ShardRefState struct {
	// Agg is the separable reference aggregate (NetOut/CosSim); zero for
	// PathSim.
	Agg sparse.Vector
	// Refs and RefVis are PathSim's pairwise inputs (visibility-filtered
	// reference vectors and their κ(vj,vj)); nil for the separable measures.
	Refs   []sparse.Vector
	RefVis []float64
}

func (st ShardRefState) scorer(m Measure) *refScorer {
	return &refScorer{m: m, s: st.Agg, refs: st.Refs, refVis: st.RefVis}
}

// RemoteShard is a coordinator-side client for one out-of-process shard.
// Call executes one shard request against the remote process and returns
// its reply; implementations own connection management, retry/backoff,
// hedging and deadline propagation (internal/shardnet.Client). Call must be
// safe for concurrent use — one client serves every ServePool worker — and
// should return an error only for transport-level faults (the remote
// expressing a failure returns a response with Err/Code/Kind set instead).
type RemoteShard interface {
	Call(ctx context.Context, req *ShardRequest, b *ShardBroadcast) (*ShardResponse, error)
	// Addr names the remote endpoint for accounting and metrics.
	Addr() string
}

// shardCall couples a versioned ShardRequest with the execution state its
// side of the boundary needs: the query's context, the broadcast reference
// reduction (as the in-process scorers, plus its wire form when the group
// is remote), and the reply channel.
type shardCall struct {
	req     *ShardRequest
	ctx     context.Context
	scorers *queryScorers
	bcast   *ShardBroadcast
	reply   chan<- *ShardResponse
}

// shardCaller is the seam between the coordinator's scatter loop and a
// shard's execution: the resident in-process goroutine (shardRunner) and
// the remote client adapter (remoteRunner) both implement it. dispatch must
// not block on the shard's work (the reply channel is buffered) and every
// dispatched call MUST eventually produce exactly one reply — the gather
// loop counts on it.
type shardCaller interface {
	dispatch(*shardCall)
	stop()
}

// shardRunner is one resident in-process shard: a long-lived goroutine
// owning a private materializer view, serving one shardCall at a time.
// There is no cross-shard locking on the hot path — a runner touches only
// its own view, selector and scratch; the only shared state is the
// read-only broadcast reduction (and, for the cached strategy, the
// internally-synchronized shared cache).
type shardRunner struct {
	id    int
	mat   Materializer
	calls chan *shardCall
}

func (r *shardRunner) dispatch(call *shardCall) { r.calls <- call }
func (r *shardRunner) stop()                    { close(r.calls) }

// remoteRunner adapts a RemoteShard client to the shardCaller seam. Each
// dispatch runs in its own goroutine so a slow or dead remote never blocks
// the scatter loop; a transport error or a panicking client synthesizes a
// classified failure response, so the gather loop's exactly-one-reply
// invariant holds no matter what the network does.
type remoteRunner struct {
	shard RemoteShard
}

func (r *remoteRunner) dispatch(call *shardCall) {
	go func() { call.reply <- r.serve(call) }()
}

// stop is a no-op: remote clients are owned by whoever constructed them
// (they are shared across every worker engine of a ServePool), not by the
// engine's shard group.
func (r *remoteRunner) stop() {}

func (r *remoteRunner) serve(call *shardCall) *ShardResponse {
	start := time.Now()
	resp, err := func() (resp *ShardResponse, err error) {
		defer recoverAsError(&err)
		return r.shard.Call(call.ctx, call.req, call.bcast)
	}()
	if err == nil && resp == nil {
		err = xerr.Newf(xerr.Unavailable, "core: remote shard %s returned no response", r.shard.Addr())
	}
	if err != nil {
		// Transport-level loss: there is no reply to merge, so the shard
		// contributed an empty exact prefix. The synthesized response speaks
		// the coordinator's own version — skew detection applies to what a
		// remote actually said, never to its absence.
		resp = &ShardResponse{
			Version:    ShardProtocolVersion,
			QueryID:    call.req.QueryID,
			Candidates: len(call.req.Candidates),
			Err:        err.Error(),
			Code:       xerr.CodeOf(err),
			Kind:       xerr.KindOf(err),
			Duration:   time.Since(start),
			err:        err,
		}
	}
	// The shard index is coordinator bookkeeping: trust the request we sent,
	// not the reply, so a confused remote cannot scribble over another
	// shard's slot in the gather array.
	resp.Shard = call.req.Shard
	if resp.err == nil && resp.Err != "" {
		resp.err = xerr.FromWire(resp.Code, resp.Kind, resp.Err)
	}
	resp.remote = true
	resp.addr = r.shard.Addr()
	return resp
}

// shardGroup is an engine's shard pool: resident in-process runners, or
// adapters over remote shard clients.
type shardGroup struct {
	callers []shardCaller
	// statsShared mirrors the pipeline's accounting split: views of the
	// cached materializer share counters, so per-shard deltas would
	// multiply-count and the coordinator takes one whole-phase delta.
	statsShared bool
	// remote marks a group of out-of-process shards: the scatter loop then
	// serializes the reference broadcast once per query and the gather loop
	// widens the degradation rule to transport faults.
	remote bool
	closed atomic.Bool
	wg     sync.WaitGroup
}

func newShardGroup(e *Engine, n int) (*shardGroup, error) {
	g := &shardGroup{callers: make([]shardCaller, n)}
	_, g.statsShared = e.mat.(*cached)
	runners := make([]*shardRunner, n)
	for i := range runners {
		view, err := NewView(e.mat)
		if err != nil {
			return nil, err
		}
		runners[i] = &shardRunner{id: i, mat: view, calls: make(chan *shardCall)}
		g.callers[i] = runners[i]
	}
	for _, r := range runners {
		g.wg.Add(1)
		go func(r *shardRunner) {
			defer g.wg.Done()
			for call := range r.calls {
				call.reply <- serveShard(call.ctx, e.g, r.mat, call.req, call.scorers)
			}
		}(r)
	}
	return g, nil
}

// newRemoteShardGroup adapts the engine's remote shard clients into a
// group. No resident goroutines and no views: each remote process owns its
// own graph slice and arena index, and dispatch spawns per-call.
func newRemoteShardGroup(e *Engine) *shardGroup {
	g := &shardGroup{remote: true, callers: make([]shardCaller, len(e.remotes))}
	for i, rs := range e.remotes {
		g.callers[i] = &remoteRunner{shard: rs}
	}
	return g
}

// close stops the runners and waits for them to exit. Idempotent. Remote
// clients are not closed — the engine does not own them.
func (g *shardGroup) close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	for _, c := range g.callers {
		c.stop()
	}
	g.wg.Wait()
}

// WithShards partitions query execution across n resident shards: the
// candidate set splits into n contiguous ranges, each scored by a dedicated
// goroutine with its own materializer view, and the results are k-way
// merged — bit-identical to unsharded execution for any n (see the
// determinism contract above). n <= 0 (the default) disables sharding;
// n == 1 runs the full scatter–gather machinery with a single shard, the
// honest baseline for measuring the tier's overhead. Sharded engines hold
// resident goroutines; release them with Close. Sharding replaces the
// intra-query chunk pipeline (WithQueryParallelism) when both are set.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.shards = n
	}
}

// WithRemoteShards scatters queries across out-of-process shards instead of
// resident goroutines: one RemoteShard client per shard process, in shard
// order (client i serves candidates range i). The reference side still
// reduces once on the coordinator and is broadcast to every shard as a
// ShardBroadcast; replies merge under the same determinism contract, so
// results are bit-identical to unsharded execution when every shard is
// healthy. Remote shards take precedence over WithShards when both are set.
// The engine does NOT own the clients — close them (and their connections)
// wherever they were dialed, after the engine is done.
func WithRemoteShards(shards ...RemoteShard) Option {
	return func(e *Engine) { e.remotes = shards }
}

// Shards returns the configured shard count (0 = unsharded).
func (e *Engine) Shards() int {
	if len(e.remotes) > 0 {
		return len(e.remotes)
	}
	return e.shards
}

// shardGroup lazily starts the engine's shard pool on first use. Remote
// clients win over in-process shards. Construction failure (a materializer
// without concurrent views) declines in-process sharding permanently and
// the engine runs unsharded, mirroring pipelineWorkers' fallback; remote
// groups cannot fail construction.
func (e *Engine) shardGroup() *shardGroup {
	if len(e.remotes) > 0 {
		e.shardOnce.Do(func() { e.shardGrp = newRemoteShardGroup(e) })
		return e.shardGrp
	}
	if e.shards < 1 {
		return nil
	}
	e.shardOnce.Do(func() {
		if g, err := newShardGroup(e, e.shards); err == nil {
			e.shardGrp = g
		}
	})
	return e.shardGrp
}

// Close releases the engine's resident shard goroutines, waiting for them
// to exit. Engines without WithShards hold no resident resources and need
// no Close (remote shard clients are owned by their dialer, not the
// engine). Close is idempotent and nil-safe; executing queries on a closed
// sharded engine is a caller bug (it fails the query with a *PanicError,
// like any other panic).
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.shardOnce.Do(func() {}) // no group may start after Close
	if e.shardGrp != nil {
		e.shardGrp.close()
	}
}

// queryScorers is a query's reduced reference side (referenceSide builds it
// for every executor): one refScorer over the concatenated vectors
// (CombineConcat) or one per feature path (CombineAverage), read-only once
// built — pipeline workers and shards share it. For NetOut/CosSim each
// refScorer is a single aggregate vector — the "one small message" the
// network transport broadcasts.
type queryScorers struct {
	concat  *refScorer
	perPath []*refScorer
	weights []float64
	stride  int32
}

func newQueryScorers(measure Measure, combine Combination, refPerPath [][]sparse.Vector, weights []float64, stride int32) *queryScorers {
	qs := &queryScorers{weights: weights, stride: stride}
	if combine == CombineConcat {
		qs.concat = newRefScorer(measure, concatVectors(refPerPath, weights, stride))
		return qs
	}
	qs.perPath = make([]*refScorer, len(refPerPath))
	for m := range refPerPath {
		qs.perPath[m] = newRefScorer(measure, refPerPath[m])
	}
	return qs
}

// broadcast captures the scorers' post-reduction state in wire form. The
// state is shared, not copied — the broadcast is read-only by contract on
// both sides of the codec.
func (qs *queryScorers) broadcast() *ShardBroadcast {
	b := &ShardBroadcast{Stride: qs.stride}
	if qs.concat != nil {
		b.Refs = []ShardRefState{{Agg: qs.concat.s, Refs: qs.concat.refs, RefVis: qs.concat.refVis}}
		return b
	}
	b.Refs = make([]ShardRefState, len(qs.perPath))
	for i, rs := range qs.perPath {
		b.Refs[i] = ShardRefState{Agg: rs.s, Refs: rs.refs, RefVis: rs.refVis}
	}
	return b
}

// scorersFromRequest reconstructs the read-only scoring state on the far
// side of the wire from a request plus its broadcast. Validation is the
// shard server's input hygiene: a malformed pairing fails the request with
// a typed error instead of scoring garbage.
func scorersFromRequest(req *ShardRequest, b *ShardBroadcast) (*queryScorers, error) {
	if b == nil {
		return nil, xerr.New(xerr.InvalidArgument, "core: shard request without a reference broadcast")
	}
	switch req.Measure {
	case MeasureNetOut, MeasurePathSim, MeasureCosSim:
	default:
		return nil, xerr.Newf(xerr.InvalidArgument, "core: shard request names unknown measure %d", int(req.Measure))
	}
	if len(req.Weights) != len(req.Paths) {
		return nil, xerr.Newf(xerr.InvalidArgument, "core: shard request has %d weights for %d paths", len(req.Weights), len(req.Paths))
	}
	qs := &queryScorers{weights: req.Weights, stride: b.Stride}
	switch req.Combine {
	case CombineConcat:
		if len(b.Refs) != 1 {
			return nil, xerr.Newf(xerr.InvalidArgument, "core: concat shard broadcast carries %d reference states, want 1", len(b.Refs))
		}
		qs.concat = b.Refs[0].scorer(req.Measure)
	case CombineAverage:
		if len(b.Refs) != len(req.Paths) {
			return nil, xerr.Newf(xerr.InvalidArgument, "core: shard broadcast carries %d reference states for %d paths", len(b.Refs), len(req.Paths))
		}
		qs.perPath = make([]*refScorer, len(b.Refs))
		for i, st := range b.Refs {
			qs.perPath[i] = st.scorer(req.Measure)
		}
	default:
		return nil, xerr.Newf(xerr.InvalidArgument, "core: shard request names unknown combination %d", int(req.Combine))
	}
	return qs, nil
}

// score combines one candidate's per-path vectors into its outlier score —
// the one combination arithmetic every executor scores through (candidateSide).
// ok is false for a candidate with zero visibility under every path (skipped
// from ranking).
func (qs *queryScorers) score(vecs []sparse.Vector) (float64, bool) {
	if qs.concat != nil {
		s := qs.concat.score(concatOne(vecs, qs.weights, qs.stride))
		return s, !math.IsNaN(s)
	}
	var mean weightedMean
	for m, rs := range qs.perPath {
		mean.add(qs.weights[m], rs.score(vecs[m]))
	}
	return mean.value()
}

// weightedMean is CombineAverage over one candidate's per-path scores, in
// path order. The average is renormalized by the summed weight of the paths
// that actually characterize the candidate: one with zero visibility under a
// path (a NaN score) still gets a proper weighted mean of the paths it IS
// visible under, instead of a score deflated by the invisible paths' weight
// (which would fake extra outlierness).
type weightedMean struct {
	sum, w float64
	ok     bool
}

func (a *weightedMean) add(w, s float64) {
	if !math.IsNaN(s) {
		a.sum += w * s
		a.w += w
		a.ok = true
	}
}

// value is the mean; ok is false when no path contributed.
func (a *weightedMean) value() (float64, bool) {
	if a.w > 0 {
		return a.sum / a.w, a.ok
	}
	return a.sum, a.ok
}

// shardFailure builds the classified failure reply for a request that never
// reached scoring (skew, malformed broadcast, out-of-range candidates).
func shardFailure(req *ShardRequest, err error) *ShardResponse {
	return &ShardResponse{
		Version:    ShardProtocolVersion,
		QueryID:    req.QueryID,
		Shard:      req.Shard,
		Candidates: len(req.Candidates),
		Err:        err.Error(),
		Code:       xerr.CodeOf(err),
		Kind:       xerr.KindOf(err),
		err:        err,
	}
}

// ServeShardRequest executes one shard request against a graph slice host:
// the entry point a shard server (internal/shardnet) calls for each decoded
// request. It enforces the protocol version, validates the request against
// the broadcast and the local graph, and never fails — every fault comes
// back as a classified failure response, mirroring the in-process rule that
// shards always reply. The materializer must be private to the caller for
// the duration of the call (shard servers hold a view pool).
func ServeShardRequest(ctx context.Context, g *hin.Graph, mat Materializer, req *ShardRequest, b *ShardBroadcast) *ShardResponse {
	if req.Version != ShardProtocolVersion {
		return shardFailure(req, xerr.Newf(xerr.Internal,
			"core: shard protocol skew: request version %d, this shard speaks %d", req.Version, ShardProtocolVersion))
	}
	scorers, err := scorersFromRequest(req, b)
	if err != nil {
		return shardFailure(req, err)
	}
	n := hin.VertexID(g.NumVertices())
	for _, v := range req.Candidates {
		if v < 0 || v >= n {
			return shardFailure(req, xerr.Newf(xerr.InvalidArgument,
				"core: shard candidate %d outside graph (%d vertices)", v, n))
		}
	}
	return serveShard(ctx, g, mat, req, scorers)
}

// serveShard scores the shard's candidate slice against the broadcast
// reference reduction: its own candidateSide over the slice, then fused
// materialize+score per candidate, ascending order, into a bounded top-n
// heap. Failures never escape the shard — a
// panic or per-vertex error is recorded on the response together with the
// exact prefix of fully-scored candidates, so the coordinator can degrade
// the query instead of the fault killing it (or the process). Shared by the
// in-process shardRunner and the network shard server.
func serveShard(ctx context.Context, g *hin.Graph, mat Materializer, req *ShardRequest, scorers *queryScorers) *ShardResponse {
	start := time.Now()
	resp := &ShardResponse{
		Version:    ShardProtocolVersion,
		QueryID:    req.QueryID,
		Shard:      req.Shard,
		Candidates: len(req.Candidates),
	}
	base := mat.Stats()
	kernels, _ := kernelCountsOf(mat)
	sel := newTopSelector(req.TopK)
	err := func() (err error) {
		defer recoverAsError(&err)
		cs, err := newCandidateSide(ctx, g, mat, scorers, req.Measure, req.Paths, req.Candidates, nil)
		if err != nil {
			return err
		}
		var buf candBuf
		for i := range req.Candidates {
			// A candidate interrupted mid-materialization is in neither
			// Entries nor Skipped; Done advances only past fully-scored ones,
			// so the response always describes an exact prefix.
			if _, err := cs.load(ctx, mat, i, i+1, &buf); err != nil {
				return err
			}
			cs.score(&buf)
			resp.Skipped = cs.collect(&buf, sel, resp.Skipped)
			resp.Done = i + 1
		}
		return nil
	}()
	resp.Entries = sel.ranked()
	resp.Stats = mat.Stats().Sub(base)
	if after, ok := kernelCountsOf(mat); ok {
		resp.kernels = after.Sub(kernels)
	}
	resp.Duration = time.Since(start)
	if err != nil {
		resp.err = err
		resp.Err = err.Error()
		resp.Code = xerr.CodeOf(err)
		resp.Kind = xerr.KindOf(err)
	}
	return resp
}

// shardDegradable decides whether a failed shard folds into an exact-prefix
// Partial instead of failing the query. The in-process rule mirrors
// unsharded execution (deadline) plus the tier's panic isolation; a remote
// reply widens it to the network tier's loss modes — transport failure,
// admission shed and remote defects — because a lost remote shard is
// operationally the same event as a panicking local one: its Done-prefix is
// exact and the rest of the fleet's work should survive. Cancellation never
// degrades (nobody is waiting), and remote INTERNAL failures that are not
// defects (e.g. protocol-level rejections) fail the query: they signal
// misconfiguration, not load.
func (e *Engine) shardDegradable(sr *ShardResponse) bool {
	if e.measure != MeasureNetOut || sr.err == nil {
		return false
	}
	if degradable(sr.err) || IsPanicError(sr.err) {
		return true
	}
	if !sr.remote {
		return false
	}
	switch xerr.CodeOf(sr.err) {
	case xerr.DeadlineExceeded, xerr.ResourceExhausted, xerr.Unavailable:
		return true
	case xerr.Internal:
		return xerr.KindOf(sr.err) == xerr.KindDefect
	}
	return false
}

// executeSharded runs the materialize/score/rank phases of a planned query
// on the shard group, filling res in place. The trace records the
// scatter–gather phase shape — reduce (reference side, on the coordinator)
// → scatter (shard fan-out and local scoring) → merge (k-way merge and skip
// assembly) — with per-shard sub-spans folded into the trace, the wide
// event and Result.Shards.
func (e *Engine) executeSharded(ctx context.Context, plan *queryPlan, res *Result, tr *obs.Tracer, sg *shardGroup) error {
	cands, paths, weights := plan.cands, plan.paths, plan.weights

	// Reference reduction, once on the coordinator (referenceSide: the same
	// function, hence the same aggregate bits, as unsharded execution). The
	// candidates are scored elsewhere, so vectors it holds are dropped.
	plan.ifq.SetPhase("reduce")
	matBefore := e.mat.Stats()
	cacheBefore, _ := CacheStatsOf(e.mat)
	scorers, _, err := e.referenceSide(ctx, plan, e.mat)
	if err != nil {
		return err
	}
	var bcast *ShardBroadcast
	if sg.remote {
		bcast = scorers.broadcast()
	}
	d := e.mat.Stats().Sub(matBefore)
	cacheMid, _ := CacheStatsOf(e.mat)
	res.Timing.charge(d)
	tr.EndPhase("reduce", obs.SpanStats{
		TraversedVectors: d.TraversedVectors,
		IndexedVectors:   d.IndexedVectors,
		CacheHits:        cacheMid.Hits - cacheBefore.Hits,
		CacheMisses:      cacheMid.Misses - cacheBefore.Misses,
	})

	// Scatter: one versioned request per shard over its contiguous range of
	// the ascending candidate set, then gather every reply. Shards always
	// reply — panics are recovered inside serveShard, and the remote adapter
	// synthesizes a classified reply on transport loss — so the gather
	// cannot hang.
	plan.ifq.SetPhase("scatter")
	scatterBase := e.mat.Stats()
	ranges := hin.PartitionVertices(cands, len(sg.callers))
	reply := make(chan *ShardResponse, len(sg.callers))
	rid := obs.RequestIDFrom(ctx)
	for i, c := range sg.callers {
		c.dispatch(&shardCall{
			req: &ShardRequest{
				Version:    ShardProtocolVersion,
				QueryID:    rid,
				Shard:      i,
				TopK:       plan.q.TopK,
				Measure:    e.measure,
				Combine:    e.combine,
				Weights:    weights,
				Paths:      paths,
				Candidates: ranges[i],
			},
			ctx:     ctx,
			scorers: scorers,
			bcast:   bcast,
			reply:   reply,
		})
	}
	resps := make([]*ShardResponse, len(sg.callers))
	for range sg.callers {
		sr := <-reply
		resps[sr.Shard] = sr
	}
	var sd MatStats
	if sg.statsShared {
		sd = e.mat.Stats().Sub(scatterBase)
	} else {
		for _, sr := range resps {
			sd = sd.Add(sr.Stats)
		}
	}
	for _, sr := range resps {
		plan.viewKernels = plan.viewKernels.Add(sr.kernels)
	}
	res.Timing.charge(sd)
	cacheAfter, _ := CacheStatsOf(e.mat)
	tr.EndPhase("scatter", obs.SpanStats{
		TraversedVectors: sd.TraversedVectors,
		IndexedVectors:   sd.IndexedVectors,
		CacheHits:        cacheAfter.Hits - cacheMid.Hits,
		CacheMisses:      cacheAfter.Misses - cacheMid.Misses,
	})

	// Version gate before any merging: a reply stamped with a foreign
	// protocol revision means a mixed-revision fleet, and its payload cannot
	// be trusted to mean what this coordinator thinks it means. Skew is a
	// deployment bug, so it fails the query whole — degrading would fold
	// unintelligible data into a "partial" answer.
	for _, sr := range resps {
		if sr.Version != ShardProtocolVersion {
			where := ""
			if sr.remote {
				where = " (" + sr.addr + ")"
			}
			return xerr.Newf(xerr.Internal,
				"core: shard protocol skew: shard %d%s replied version %d, coordinator speaks %d",
				sr.Shard, where, sr.Version, ShardProtocolVersion)
		}
	}

	// Classify shard failures. A deadline-expired or panicking shard
	// degrades under NetOut — its Done-prefix scores are exact — while
	// cancellation and real errors fail the query, exactly as unsharded
	// execution treats them; remote shards additionally degrade on
	// transport loss and overload (see shardDegradable).
	plan.ifq.SetPhase("merge")
	mergeStart := time.Now()
	partial := false
	totalDone := 0
	var failErr, degradedErr error
	for _, sr := range resps {
		totalDone += sr.Done
		if sr.err == nil {
			continue
		}
		if e.shardDegradable(sr) {
			partial = true
			if degradedErr == nil {
				degradedErr = sr.err
			}
			continue
		}
		if failErr == nil {
			failErr = sr.err
		}
	}
	if failErr != nil {
		return failErr
	}
	if partial {
		if totalDone == 0 {
			// No shard completed any candidate: there is nothing to degrade
			// to, so the first failing shard's error stands (the unsharded
			// empty-prefix rule).
			return degradedErr
		}
		res.Partial = true
	}

	// Deterministic k-way merge under the (score, vertex) total order, then
	// per-shard accounting. Skip lists concatenate in shard order, which IS
	// ascending candidate order (ranges are contiguous).
	lists := make([][]Entry, len(resps))
	for i, sr := range resps {
		lists[i] = sr.Entries
	}
	res.Entries = mergeRanked(lists, plan.q.TopK)
	res.Shards = make([]ShardStatus, len(resps))
	for i, sr := range resps {
		res.Skipped = append(res.Skipped, sr.Skipped...)
		res.Shards[i] = ShardStatus{
			Shard:      i,
			Addr:       sr.addr,
			Candidates: sr.Candidates,
			Done:       sr.Done,
			Partial:    sr.err != nil,
			Err:        sr.Err,
			Duration:   sr.Duration,
		}
		tr.AddShard(obs.ShardSpan{
			Shard:      i,
			Addr:       sr.addr,
			Duration:   sr.Duration,
			Candidates: sr.Candidates,
			Done:       sr.Done,
			Partial:    sr.err != nil,
			Err:        sr.Err,
		})
	}
	tr.EndPhase("merge", obs.SpanStats{})
	res.Timing.Scoring += time.Since(mergeStart)
	return nil
}

// ShardStatus is one shard's per-query accounting on a sharded Result.
type ShardStatus struct {
	// Shard is the shard index in [0, S).
	Shard int
	// Addr is the remote shard's endpoint ("" for in-process shards).
	Addr string
	// Candidates is the size of the shard's candidate slice; Done counts
	// the candidates it fully scored (== Candidates for a healthy shard).
	Candidates, Done int
	// Partial marks a shard that contributed an exact-prefix partial
	// instead of completing; Err is its classified error text ("" for a
	// healthy shard).
	Partial bool
	Err     string
	// Duration is the shard's wall time for this query.
	Duration time.Duration
}
