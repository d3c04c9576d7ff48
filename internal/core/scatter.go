package core

import (
	"context"
	"math"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// The shard protocol: what a coordinator (Engine.run, execute.go) and a shard
// process say to each other, and the shard server's side of it.

// ShardProtocolVersion is the protocol revision stamped on every
// ShardRequest and ShardResponse. The structs below are deliberately
// transport-agnostic — plain data, no channels, no engine internals in the
// exported fields — and internal/shardnet serializes exactly these messages
// across the process boundary; the version field is how a mixed-revision
// fleet detects skew instead of silently mis-merging. Version 2 added the
// Kind field to ShardResponse (v1 never had a serialized form, so there is
// no v1 peer to interoperate with). Both sides enforce the version: a shard
// server rejects a request stamped with a foreign version, and the
// coordinator fails the query on a reply that does not echo its own.
const ShardProtocolVersion = 2

// ShardRequest is one shard's share of a scattered query: the full scoring
// configuration plus the shard's contiguous slice of the ascending
// candidate set. The reference side is NOT in the request — it reduces once
// on the coordinator and is broadcast alongside as the ShardBroadcast (one
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
	// The coordinator reconstructs a classified error from the three with
	// xerr.FromWire — Kind is what lets a remote defect (a shard panic whose
	// *PanicError cannot cross the wire) degrade like a local one.
	Err  string
	Code xerr.Code
	Kind xerr.Kind
	// Stats is the shard's materializer delta for this request.
	Stats MatStats
	// Duration is the shard's wall time for this request.
	Duration time.Duration
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

// scorer is the one constructor of a refScorer: a reduction (newRefScorer), a
// set-frontier propagation (referenceSide) and a shard's broadcast all end
// here, so a shard scores a broadcast S exactly as the coordinator scores its
// own. S's directory is built apart (withDir).
func (st ShardRefState) scorer(m Measure) *refScorer {
	return &refScorer{m: m, s: st.Agg, refs: st.Refs, refVis: st.RefVis}
}

// RemoteShard is a coordinator-side client for one out-of-process shard.
// Call executes one shard request against the remote process and returns
// its reply; implementations own connection management, retry/backoff and
// deadline propagation (internal/shardnet.Client). Call must be
// safe for concurrent use — one client serves every query a ServePool runs — and
// should return an error only for transport-level faults (the remote
// expressing a failure returns a response with Err/Code/Kind set instead).
type RemoteShard interface {
	Call(ctx context.Context, req *ShardRequest, b *ShardBroadcast) (*ShardResponse, error)
	// Addr names the remote endpoint for accounting and metrics.
	Addr() string
}

// WithRemoteShards scatters queries across out-of-process shards instead of
// local ranges: one RemoteShard client per shard process, in shard order
// (client i serves candidate range i). The reference side still reduces once
// on the coordinator and is broadcast to every shard as a ShardBroadcast;
// replies merge under the same determinism contract (execute.go), so results
// are bit-identical to inline execution when every shard is healthy. Remote
// shards take precedence over WithQueryParallelism's local ranges.
// The engine does NOT own the clients — close them (and their connections)
// wherever they were dialed, after the engine is done.
func WithRemoteShards(shards ...RemoteShard) Option {
	return func(e *Engine) { e.remotes = shards }
}

// Close does nothing: an engine holds no resident resources (remote shard
// clients are owned by their dialer). It stays, nil-safe, for the callers
// that defer it.
func (e *Engine) Close() {}

// queryScorers is a query's reduced reference side (referenceSide builds
// it): one refScorer over the concatenated vectors (CombineConcat) or one per
// feature path (CombineAverage), read-only once built — every range shares
// it. For NetOut/CosSim each refScorer is a single aggregate vector — the
// "one small message" the network transport broadcasts.
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
// side of the wire from a request plus its broadcast, without S's
// directories: the candidate side builds those it dots against. Validation
// is the shard server's input hygiene: a malformed pairing fails the request
// with a typed error instead of scoring garbage.
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
// the one combination arithmetic every range scores through (candidateSide).
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

// ServeShardRequest executes one shard request against a graph slice host:
// the entry point a shard server (internal/shardnet) calls for each decoded
// request. It enforces the protocol version, validates the request against
// the broadcast and the local graph, and scores the slice with scoreRange
// through a candidateSide of its own. It never fails: every fault — a panic
// included — comes back as a classified failure response beside the exact
// prefix scored before it, so a coordinator always has a reply to merge or
// degrade. The materializer must be private to the caller for the duration
// of the call (shard servers hold a view pool).
func ServeShardRequest(ctx context.Context, g *hin.Graph, mat Materializer, req *ShardRequest, b *ShardBroadcast) *ShardResponse {
	start := time.Now()
	base := mat.Stats()
	rr := func() (rr rangeResult) {
		defer recoverAsError(&rr.err)
		if req.Version != ShardProtocolVersion {
			return rangeResult{err: xerr.Newf(xerr.Internal,
				"core: shard protocol skew: request version %d, this shard speaks %d", req.Version, ShardProtocolVersion)}
		}
		scorers, err := scorersFromRequest(req, b)
		if err != nil {
			return rangeResult{err: err}
		}
		for i, p := range req.Paths {
			if err := p.Validate(g.Schema()); err != nil {
				return rangeResult{err: xerr.Newf(xerr.InvalidArgument, "core: shard feature path %d: %v", i, err)}
			}
		}
		n := hin.VertexID(g.NumVertices())
		for _, v := range req.Candidates {
			if v < 0 || v >= n {
				return rangeResult{err: xerr.Newf(xerr.InvalidArgument,
					"core: shard candidate %d outside graph (%d vertices)", v, n)}
			}
		}
		cs, err := newCandidateSide(ctx, g, mat, scorers, req.Measure, req.Paths, req.Candidates, nil)
		if err != nil {
			return rangeResult{err: err}
		}
		return scoreRange(ctx, cs, mat, 0, len(req.Candidates), req.TopK)
	}()
	resp := &ShardResponse{
		Version:    ShardProtocolVersion,
		QueryID:    req.QueryID,
		Shard:      req.Shard,
		Entries:    rr.entries,
		Skipped:    rr.skipped,
		Candidates: len(req.Candidates),
		Done:       rr.done,
		Stats:      mat.Stats().Sub(base),
		Duration:   time.Since(start),
	}
	if rr.err != nil {
		resp.Err = rr.err.Error()
		resp.Code = xerr.CodeOf(rr.err)
		resp.Kind = xerr.KindOf(rr.err)
	}
	return resp
}

// ShardStatus is one range's per-query accounting on a Result: a remote
// shard's, or a local range's (a shard without an address).
type ShardStatus = obs.ShardSpan
