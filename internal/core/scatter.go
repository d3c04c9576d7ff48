package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
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
// fleet detects skew instead of silently mis-merging. Both sides enforce it:
// a shard server rejects a request stamped with a foreign version, and the
// coordinator fails the query on a reply that does not echo its own. Version
// 3 sends what a shard already holds by reference: a broadcast's S as its
// digest once the shard keeps it (RefForm), a candidate slice that is a run of
// its type's vertex list as the run (CandidateRun); a reply carries the
// shard's plan lines.
const ShardProtocolVersion = 3

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
	// Run, when set, names Candidates as a run of a type's vertex list; it
	// travels instead of the IDs and the shard reads the slice off its graph.
	Run *CandidateRun
}

// CandidateRun is a candidate slice that is VerticesOfType(Type)[Lo:Hi].
type CandidateRun struct {
	Type   hin.TypeID
	Lo, Hi int
}

// runOf names cands, a slice of a candidate set of type t, as a run of t's
// vertex list; nil when it is none. A candidate set ascends, holds no
// duplicate and only vertices of t, so its ends decide.
func runOf(g *hin.Graph, t hin.TypeID, cands []hin.VertexID) *CandidateRun {
	vs := g.VerticesOfType(t)
	if n := len(cands); n > 0 {
		if i, ok := slices.BinarySearch(vs, cands[0]); ok && i+n <= len(vs) && vs[i+n-1] == cands[n-1] {
			return &CandidateRun{Type: t, Lo: i, Hi: i + n}
		}
	}
	return nil
}

// candidatesOf is the slice req names on g: a run read in place off the
// type's vertex list, or the list with every ID checked against the graph.
func candidatesOf(g *hin.Graph, req *ShardRequest) ([]hin.VertexID, error) {
	if r := req.Run; r != nil {
		if int(r.Type) >= g.Schema().NumTypes() || r.Lo < 0 || r.Lo > r.Hi || r.Hi > g.NumVerticesOfType(r.Type) {
			return nil, xerr.Newf(xerr.InvalidArgument, "core: shard candidate run [%d:%d] of type %d outside graph", r.Lo, r.Hi, r.Type)
		}
		return g.VerticesOfType(r.Type)[r.Lo:r.Hi:r.Hi], nil
	}
	n := hin.VertexID(g.NumVertices())
	for _, v := range req.Candidates {
		if v < 0 || v >= n {
			return nil, xerr.Newf(xerr.InvalidArgument, "core: shard candidate %d outside graph (%d vertices)", v, n)
		}
	}
	return req.Candidates, nil
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
	// Done counts the candidates fully scored: the whole slice on a clean
	// run; on a fault Entries and Skipped cover exactly the Done-prefix,
	// which is what a degraded merge keeps.
	Done int
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
	// Plan is the shard's plan lines, one per path scored from norms: where
	// its numerators came from ("(0 1 2): numer=memo").
	Plan []string
}

// Failure is the classified error r carries (xerr.FromWire), nil for a reply
// without one or for no reply.
func (r *ShardResponse) Failure() error {
	if r == nil || r.Err == "" {
		return nil
	}
	return xerr.FromWire(r.Code, r.Kind, r.Err)
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
	// Form is how Refs travel.
	Form RefForm
}

// RefForm is how a broadcast's reference states travel.
type RefForm uint8

// RefsFull sends every state whole for this request alone (an engine without
// compiled entries); RefsKeep whole, for the shard to keep under its digest;
// RefsDigest as that Digest alone — a shard that keeps no state under it
// answers NOT_FOUND with nothing done, and the transport sends RefsKeep.
const (
	RefsFull RefForm = iota
	RefsKeep
	RefsDigest
)

// ShardRefState is one refScorer's broadcastable state.
type ShardRefState struct {
	// Agg is the separable reference aggregate (NetOut/CosSim); zero for
	// PathSim.
	Agg sparse.Vector
	// Refs and RefVis are PathSim's pairwise inputs (visibility-filtered
	// reference vectors and their κ(vj,vj)); nil for the separable measures.
	Refs   []sparse.Vector
	RefVis []float64
	// Digest is the state's Sum where it travels as RefsDigest. A shard never
	// trusts one that arrives beside the state: it sums what it decoded.
	Digest [32]byte
	// kept is the store's entry of the state on a broadcast refsOf resolved,
	// which holds the key of its kept N (keptRef.numerKey); never on the wire.
	kept *keptRef
}

// Sum is the SHA-256 of st's bits: the count of Refs, then Agg and every
// vector of Refs as its length, indexes and Float64bits (so +0 is not −0),
// then RefVis. Two states with one Sum score every candidate alike.
//
// It is written through a fixed buffer, so summing S allocates nothing its
// size.
func (st ShardRefState) Sum() (d [32]byte) {
	h := sha256.New()
	var buf [512]byte
	b := buf[:0]
	put := func(x uint64, n int) { // x's n low bytes
		if len(b)+8 > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, x)[:len(b)+n]
	}
	put(uint64(len(st.Refs)), 8)
	for _, v := range append([]sparse.Vector{st.Agg}, st.Refs...) {
		put(uint64(len(v.Idx)), 8)
		for _, ix := range v.Idx {
			put(uint64(ix), 4)
		}
		for _, x := range v.Val {
			put(math.Float64bits(x), 8)
		}
	}
	for _, x := range st.RefVis {
		put(math.Float64bits(x), 8)
	}
	h.Write(b)
	h.Sum(d[:0])
	return d
}

// bytes is what st holds: S, and PathSim's vectors and visibilities.
func (st ShardRefState) bytes() int64 {
	n := int64(st.Agg.Bytes()) + 8*int64(len(st.RefVis))
	for _, r := range st.Refs {
		n += int64(r.Bytes()) + 2*24
	}
	return n
}

// scorer is the one constructor of a refScorer: a reduction (newRefScorer), a
// set-frontier propagation (referenceSide) and a shard's broadcast all end
// here, so a shard scores a broadcast S exactly as the coordinator scores its
// own. S's directory is built apart (withDir).
func (st ShardRefState) scorer(m Measure) *refScorer {
	return &refScorer{m: m, s: st.Agg, refs: st.Refs, refVis: st.RefVis}
}

// state is scorer's inverse.
func (rs *refScorer) state() ShardRefState {
	return ShardRefState{Agg: rs.s, Refs: rs.refs, RefVis: rs.refVis}
}

// refsOf is b as this shard scores it. A digest names the state the store
// keeps under it (NOT_FOUND when there is none); a state sent to be kept is
// replaced by the one kept under its own Sum, or kept. So every repeat scores
// one S object. The result is RefsDigest: every state beside the Sum it is
// kept under and its kept entry, which holds the keys of its N; the shard's
// scorers take them as theirs (scorersFromRequest).
func refsOf(mat *Materializer, b *ShardBroadcast) (*ShardBroadcast, error) {
	if b == nil || b.Form == RefsFull {
		return b, nil
	}
	out := &ShardBroadcast{Stride: b.Stride, Refs: make([]ShardRefState, len(b.Refs)), Form: RefsDigest}
	for i, st := range b.Refs {
		if b.Form == RefsKeep {
			st.Digest = st.Sum()
		}
		k := &keptRef{key: ckey{path: string(st.Digest[:]), v: refOf}, st: st}
		if kept, ok := mat.lru.lookup(k.key).(*keptRef); ok {
			k = kept
		} else if b.Form == RefsDigest {
			return nil, xerr.New(xerr.NotFound, "core: unknown reference digest")
		} else {
			k.work = int64(len(st.Agg.Idx)) // the decode of S keeping it saves
			for _, r := range st.Refs {
				k.work += int64(len(r.Idx))
			}
			mat.lru.put(k)
		}
		out.Refs[i] = k.st
		out.Refs[i].kept = k
	}
	return out, nil
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
	// refs are the scorers' states, each beside its Sum — the digest that
	// names S in a RefsDigest broadcast and keys its kept N — made at most once
	// (digested), or taken from the broadcast a shard resolved.
	refs     []ShardRefState
	once     sync.Once
	keys     []ckey // numerKey's
	keysOnce sync.Once
	// kept says a RefsKeep broadcast of the scorers reached every shard
	// without error (coordinator only).
	kept atomic.Bool
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

// all is the scorers: the concatenated one, or one per path.
func (qs *queryScorers) all() []*refScorer {
	if qs.concat != nil {
		return []*refScorer{qs.concat}
	}
	return qs.perPath
}

// broadcast captures the scorers' post-reduction state in wire form, shared,
// not copied — the broadcast is read-only by contract on both sides of the
// codec. Outside a compiled entry every broadcast is RefsFull; a compiled
// entry's is RefsKeep until it has reached every shard, RefsDigest after.
func (qs *queryScorers) broadcast(compiled bool) *ShardBroadcast {
	b := &ShardBroadcast{Stride: qs.stride}
	if compiled && qs.kept.Load() {
		b.Refs, b.Form = qs.digested(), RefsDigest
		return b
	}
	if b.Refs = qs.states(); compiled {
		b.Form = RefsKeep
	}
	return b
}

// digested is the scorers' states, in all()'s order, each beside its Sum.
func (qs *queryScorers) digested() []ShardRefState {
	qs.once.Do(func() {
		qs.refs = qs.states()
		for i := range qs.refs {
			qs.refs[i].Digest = qs.refs[i].Sum()
		}
	})
	return qs.refs
}

// numerKey is path m's store key of its kept N (keptN): its Key and S's
// digest, made once per reduced S — on a shard once per kept S, which holds
// it (keptRef.numerKey) — so a read of the kept N builds no key.
func (qs *queryScorers) numerKey(m int, paths []metapath.Path) ckey {
	if k := qs.digested()[m].kept; k != nil {
		return k.numerKey(paths[m])
	}
	qs.keysOnce.Do(func() {
		for m, st := range qs.digested() {
			qs.keys = append(qs.keys, numerKey(paths[m].Key(), st.Digest))
		}
	})
	return qs.keys[m]
}

func (qs *queryScorers) states() []ShardRefState {
	rss := qs.all()
	sts := make([]ShardRefState, len(rss))
	for i, rs := range rss {
		sts[i] = rs.state()
	}
	return sts
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
	if b.Form == RefsDigest {
		qs.once.Do(func() { qs.refs = b.Refs }) // refsOf's sums: one per state
	}
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
// request. It enforces the protocol version, refuses a request that names no
// feature path (INVALID_ARGUMENT), validates the request against
// the broadcast and the local graph, resolves the broadcast against the
// store (refsOf), and scores the slice with scoreRange through a
// candidateSide of its own, whose plan lines the reply carries. It never
// fails: every fault — a panic included — comes back as a classified failure
// response beside the exact prefix scored before it, so a coordinator always
// has a reply to merge or degrade. The materializer must be the caller's
// alone for the call (a handle ServePool.Run lends).
func ServeShardRequest(ctx context.Context, g *hin.Graph, mat *Materializer, req *ShardRequest, b *ShardBroadcast) *ShardResponse {
	start := time.Now()
	base := mat.Stats()
	var plan []string
	rr := func() (rr rangeResult) {
		defer recoverAsError(&rr.err)
		if req.Version != ShardProtocolVersion {
			return rangeResult{err: xerr.Newf(xerr.Internal,
				"core: shard protocol skew: request version %d, this shard speaks %d", req.Version, ShardProtocolVersion)}
		}
		if len(req.Paths) == 0 {
			return rangeResult{err: xerr.New(xerr.InvalidArgument, "core: shard request names no feature path")}
		}
		for i, p := range req.Paths {
			if err := p.Validate(g.Schema()); err != nil {
				return rangeResult{err: xerr.Newf(xerr.InvalidArgument, "core: shard feature path %d: %v", i, err)}
			}
		}
		cands, err := candidatesOf(g, req)
		if err != nil {
			return rangeResult{err: err}
		}
		if b, err = refsOf(mat, b); err != nil {
			return rangeResult{err: err}
		}
		scorers, err := scorersFromRequest(req, b)
		if err != nil {
			return rangeResult{err: err}
		}
		cs, err := newCandidateSide(ctx, g, mat, scorers, req.Measure, req.Paths, cands, nil)
		if err != nil {
			return rangeResult{err: err}
		}
		plan = cs.plan
		return scoreRange(ctx, cs, mat, 0, len(cands), req.TopK)
	}()
	resp := &ShardResponse{
		Version:  ShardProtocolVersion,
		QueryID:  req.QueryID,
		Shard:    req.Shard,
		Entries:  rr.entries,
		Skipped:  rr.skipped,
		Done:     rr.done,
		Stats:    mat.Stats().Sub(base),
		Duration: time.Since(start),
		Plan:     plan,
	}
	if rr.err != nil {
		resp.Err = rr.err.Error()
		resp.Code = xerr.CodeOf(rr.err)
		resp.Kind = xerr.KindOf(rr.err)
	}
	return resp
}
