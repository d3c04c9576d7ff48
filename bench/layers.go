package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"netout"
	"netout/internal/core"
	"netout/internal/shardnet"
)

// The layer pass measures single layers from outside, in the harness's own
// process: it replays the first layerN requests of a workload through the
// public functions the engine is built from, one root span per request and
// one child span per call. Nothing inside the program is instrumented.

// scoreSample caps the candidate and reference vectors the per-measure
// scoring probes run on: PathSim is pairwise, and on a whole-type scan all
// pairs would take a second per request.
const scoreSample = 256

// layerResult is what the layer pass adds to a workload's result.
type layerResult struct {
	values map[string]float64
	spans  []span
}

func (wr *workloadResult) addLayerPass(lp *layerResult) {
	for name, v := range lp.values {
		wr.setLayer(name, v)
	}
}

// materializer builds the strategy w's query server runs with.
func (w *workload) materializer(g *netout.Graph) (netout.Materializer, error) {
	if w.cacheMB == 0 {
		return netout.NewBaseline(g), nil
	}
	return netout.NewCached(g, int64(w.cacheMB)<<20, netout.WithSubpathCache(), netout.WithCachePlanner(true))
}

// recorder collects spans and sums durations by span name. The in-memory
// shards record from the engine's scatter goroutines, hence the lock.
type recorder struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
	sumUs    map[string]float64
	trace    string // identifier shared by the spans of the current request
	nextID   int
	root     int     // the root span now open; spans given parent -1 hang under it
	sink     float64 // keeps probe results alive
}

// begin starts the spans of one request; ids restart at 1.
func (r *recorder) begin(trace string) {
	r.trace, r.nextID, r.root = trace, 1, 0
}

// timed runs f as a span. parent 0 opens a root; parent -1 means the root
// that is open now.
func (r *recorder) timed(parent int, name string, attrs map[string]any, f func()) {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	switch parent {
	case 0:
		r.root = id
	case -1:
		parent = r.root
	}
	r.mu.Unlock()
	start := time.Since(r.epoch)
	f()
	end := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Workload: r.workload, Trace: r.trace, ID: id, Parent: parent, Name: name,
		StartUs: us64(start), EndUs: us64(end), Attrs: attrs})
	r.sumUs[name] += us64(end - start)
}

func layerPass(g *netout.Graph, w *workload, epoch time.Time) (*layerResult, error) {
	rec := &recorder{workload: w.name, epoch: epoch, sumUs: map[string]float64{}}
	n := min(w.layerN, len(w.requests))
	scan := w.cacheMB == 0

	// Two materializers of the server's strategy, fed the same requests in
	// the same order: one under the hand-assembled pipeline, one under
	// Engine.Execute, so both see the same cache state at every request.
	handMat, err := w.materializer(g)
	if err != nil {
		return nil, err
	}
	execMat, err := w.materializer(g)
	if err != nil {
		return nil, err
	}
	hand := netout.NewEngine(g, netout.WithMaterializer(handMat), netout.WithQueryParallelism(1))
	defer hand.Close()
	type executor struct {
		span string
		eng  *netout.Engine
	}
	engines := []executor{{"core.execute", netout.NewEngine(g, netout.WithMaterializer(execMat), netout.WithQueryParallelism(1))}}
	if scan {
		// The pipeline and the in-process shards beside the sequential path:
		// no HTTP workload runs the last two on the scan list.
		engines = append(engines,
			executor{"core.execute_pipeline", netout.NewEngine(g, netout.WithQueryParallelism(2))},
			executor{"core.execute_shards2", netout.NewEngine(g, netout.WithShards(2))})
	}
	var mem *memShards
	if w.shards > 0 {
		mem = newMemShards(g, w.shards, rec)
		engines = append(engines, executor{"shardnet.execute", netout.NewEngine(g, netout.WithRemoteShards(mem.remotes()...))})
	}
	defer func() {
		for _, e := range engines {
			e.eng.Close()
		}
	}()

	if !scan {
		// The server answers from a cache the warm-up and earlier segments
		// filled; give both materializers the same start.
		for _, src := range w.requests[:n] {
			for _, eng := range []*netout.Engine{hand, engines[0].eng} {
				if _, err := eng.Execute(src); err != nil {
					return nil, err
				}
			}
		}
	}

	trav := netout.NewTraverser(g)
	var vectors, nnz, travVectors, dots float64
	for i := 0; i < n; i++ {
		src := w.requests[i]
		rec.begin(fmt.Sprintf("%s-layer-%d", w.name, i))
		var (
			got    answer
			q      *netout.Query
			cands  []netout.VertexID
			paths  []netout.MetaPath
			candBy [][]netout.Vector
			refBy  [][]netout.Vector
			fail   error
		)
		rec.timed(0, "layer.request", map[string]any{"query": src}, func() {
			got, q, cands, paths, candBy, refBy, fail = assemble(rec, g, hand, handMat, src)
		})
		if fail != nil {
			return nil, fmt.Errorf("request %d: %w", i, fail)
		}
		for m := range paths {
			vectors += float64(len(candBy[m]) + len(refBy[m]))
		}

		// Every execution path must return what the hand-assembled pipeline did.
		for _, e := range engines {
			var res *netout.Result
			rec.timed(0, e.span, nil, func() { res, fail = e.eng.Execute(src) })
			if fail != nil {
				return nil, fmt.Errorf("request %d via %s: %w", i, e.span, fail)
			}
			if a := answerOf(res); !a.equal(got) || res.Partial {
				return nil, fmt.Errorf("request %d %q: %s returned %v…, the hand-assembled pipeline %v…", i, src, e.span, head(a.names), head(got.names))
			}
		}

		// Probes on the same vectors; none of them is part of the request.
		for m, p := range paths {
			rec.timed(0, "metapath.neighbor_vector", map[string]any{"feature": q.Features[m].Segments, "vectors": len(cands)}, func() {
				for _, v := range cands {
					vec, err := trav.NeighborVector(p, v)
					if err != nil {
						fail = err
					}
					nnz += float64(vec.NNZ())
				}
			})
			travVectors += float64(len(cands))
			cs, rs := candBy[m][:min(len(candBy[m]), scoreSample)], refBy[m][:min(len(refBy[m]), scoreSample)]
			for _, probe := range []struct {
				span    string
				measure netout.Measure
			}{
				{"core.score_sample_netout", netout.MeasureNetOut},
				{"core.score_pathsim", netout.MeasurePathSim},
				{"core.score_cossim", netout.MeasureCosSim},
			} {
				rec.timed(0, probe.span, map[string]any{"cands": len(cs), "refs": len(rs)}, func() {
					netout.ScoreVectors(probe.measure, cs, rs)
				})
			}
			rec.timed(0, "sparse.dot", map[string]any{"pairs": len(cs)}, func() {
				for k, c := range cs {
					rec.sink += c.Dot(rs[(7*k+1)%len(rs)])
				}
			})
			dots += float64(len(cs))
		}
		if fail != nil {
			return nil, fmt.Errorf("request %d: %w", i, fail)
		}
	}

	per := func(name string) float64 { return rec.sumUs[name] / float64(n) }
	attributed := rec.sumUs["oql.parse"] + rec.sumUs["oql.validate"] + rec.sumUs["core.evalset"] +
		rec.sumUs["core.materialize"] + rec.sumUs["core.score"] + rec.sumUs["harness.rank"]
	out := map[string]float64{
		"oql.parse_us":                   per("oql.parse"),
		"oql.validate_us":                per("oql.validate"),
		"core.evalset_us":                per("core.evalset"),
		"core.materialize_us_per_vector": ratio(rec.sumUs["core.materialize"], vectors),
		"metapath.neighbor_vector_us":    ratio(rec.sumUs["metapath.neighbor_vector"], travVectors),
		"metapath.vector_nnz":            ratio(nnz, travVectors),
		"core.score_us":                  per("core.score"),
		"core.score_sample_netout_us":    per("core.score_sample_netout"),
		"core.score_pathsim_us":          per("core.score_pathsim"),
		"core.score_cossim_us":           per("core.score_cossim"),
		"sparse.dot_ns":                  ratio(rec.sumUs["sparse.dot"]*1000, dots),
		"core.execute_us":                per("core.execute"),
		"core.execute_pipeline_us":       per("core.execute_pipeline"),
		"core.execute_shards2_us":        per("core.execute_shards2"),
		"trace.inproc_attributed_share":  ratio(attributed, rec.sumUs["core.execute"]),
	}
	if mem != nil {
		calls := float64(mem.calls)
		for _, name := range []string{"shardnet.encode_request", "shardnet.decode_request", "shardnet.encode_response", "shardnet.decode_response", "core.serve_shard"} {
			out[name+"_us"] = ratio(rec.sumUs[name], calls)
		}
		out["shardnet.request_bytes"] = ratio(mem.requestBytes, calls)
		out["shardnet.response_bytes"] = ratio(mem.responseBytes, calls)
	}
	return &layerResult{values: out, spans: rec.spans}, nil
}

// assemble answers one request the long way — oql.Parse, oql.Validate,
// Engine.EvalSet, Materializer.NeighborVector per reference and candidate,
// core.ScoreVectors per feature, then the weighted average over the paths a
// candidate is visible under and the (score, vertex) ranking — with a child
// span of the open root around each call. It returns the answer and the
// vectors, for the probes.
func assemble(rec *recorder, g *netout.Graph, eng *netout.Engine, mat netout.Materializer, src string) (
	got answer, q *netout.Query, cands []netout.VertexID, paths []netout.MetaPath, candBy, refBy [][]netout.Vector, err error) {
	const root = -1
	rec.timed(root, "oql.parse", nil, func() { q, err = netout.ParseQuery(src) })
	if err != nil {
		return
	}
	rec.timed(root, "oql.validate", nil, func() { _, err = netout.ValidateQuery(q, g.Schema()) })
	if err != nil {
		return
	}
	refs := cands
	rec.timed(root, "core.evalset", nil, func() {
		if cands, err = eng.EvalSet(q.From); err != nil {
			return
		}
		refs = cands
		if q.ComparedTo != nil {
			refs, err = eng.EvalSet(q.ComparedTo)
		}
	})
	if err != nil {
		return
	}
	paths = make([]netout.MetaPath, len(q.Features))
	candBy, refBy = make([][]netout.Vector, len(paths)), make([][]netout.Vector, len(paths))
	for m, f := range q.Features {
		if paths[m], err = netout.NewMetaPath(g.Schema(), f.Segments...); err != nil {
			return
		}
		rec.timed(root, "core.materialize", map[string]any{"feature": f.Segments, "vectors": len(refs) + len(cands)}, func() {
			refBy[m], candBy[m] = make([]netout.Vector, len(refs)), make([]netout.Vector, len(cands))
			for j, v := range refs {
				if refBy[m][j], err = mat.NeighborVector(paths[m], v); err != nil {
					return
				}
			}
			for j, v := range cands {
				if candBy[m][j], err = mat.NeighborVector(paths[m], v); err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
	}
	scores := make([][]float64, len(paths))
	for m := range paths {
		rec.timed(root, "core.score", nil, func() { scores[m] = netout.ScoreVectors(netout.MeasureNetOut, candBy[m], refBy[m]) })
	}
	rec.timed(root, "harness.rank", nil, func() {
		type entry struct {
			v     netout.VertexID
			score float64
		}
		var ranked []entry
		for i, v := range cands {
			sum, weight := 0.0, 0.0
			for m, f := range q.Features {
				if s := scores[m][i]; !math.IsNaN(s) {
					sum += f.Weight * s
					weight += f.Weight
				}
			}
			if weight == 0 {
				got.skipped++
				continue
			}
			ranked = append(ranked, entry{v, sum / weight})
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].score != ranked[b].score {
				return ranked[a].score < ranked[b].score
			}
			return ranked[a].v < ranked[b].v
		})
		if q.TopK > 0 && len(ranked) > q.TopK {
			ranked = ranked[:q.TopK]
		}
		got.candidates, got.references = len(cands), len(refs)
		for _, e := range ranked {
			got.names = append(got.names, g.Name(e.v))
			got.scores = append(got.scores, math.Float64bits(e.score))
		}
	})
	return
}

// memShards are in-memory stand-ins for the TCP shard servers: each is a
// core.RemoteShard that carries a call through the real codec and the real
// server entry point — WriteRequest → ReadRequest → core.ServeShardRequest →
// WriteResponse → ReadResponse — with a span around each step and no
// socket, so the codec and the shard's own work are timed free of the
// network.
type memShards struct {
	rec                         *recorder
	shards                      []*memShard
	mu                          sync.Mutex
	calls                       int
	requestBytes, responseBytes float64
}

type memShard struct {
	set  *memShards
	g    *netout.Graph
	mat  netout.Materializer // private to this shard, as a shard server's views are
	mu   sync.Mutex
	addr string
}

func newMemShards(g *netout.Graph, n int, rec *recorder) *memShards {
	set := &memShards{rec: rec}
	for i := 0; i < n; i++ {
		set.shards = append(set.shards, &memShard{set: set, g: g, mat: netout.NewBaseline(g), addr: fmt.Sprintf("mem:%d", i)})
	}
	return set
}

func (s *memShards) remotes() []netout.RemoteShard {
	out := make([]netout.RemoteShard, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh
	}
	return out
}

func (sh *memShard) Addr() string { return sh.addr }

func (sh *memShard) Call(ctx context.Context, req *netout.ShardRequest, b *netout.ShardBroadcast) (*netout.ShardResponse, error) {
	defer cleanupOnPanic() // the engine's scatter goroutines end up here
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.set.rec
	attrs := map[string]any{"shard": req.Shard}
	var (
		wire     bytes.Buffer
		decoded  *shardnet.Request
		resp     *netout.ShardResponse
		out      *netout.ShardResponse
		err      error
		reqBytes int
	)
	step := func(name string, f func()) { rec.timed(-1, name, attrs, f) }
	step("shardnet.encode_request", func() { err = shardnet.WriteRequest(&wire, &shardnet.Request{Req: req, Broadcast: b}) })
	if err != nil {
		return nil, err
	}
	reqBytes = wire.Len()
	step("shardnet.decode_request", func() { decoded, err = shardnet.ReadRequest(&wire) })
	if err != nil {
		return nil, err
	}
	step("core.serve_shard", func() { resp = core.ServeShardRequest(ctx, sh.g, sh.mat, decoded.Req, decoded.Broadcast) })
	wire.Reset()
	step("shardnet.encode_response", func() { err = shardnet.WriteResponse(&wire, resp) })
	if err != nil {
		return nil, err
	}
	respBytes := wire.Len()
	step("shardnet.decode_response", func() { out, err = shardnet.ReadResponse(&wire) })
	if err != nil {
		return nil, err
	}
	sh.set.mu.Lock()
	sh.set.calls++
	sh.set.requestBytes += float64(reqBytes)
	sh.set.responseBytes += float64(respBytes)
	sh.set.mu.Unlock()
	return out, nil
}
