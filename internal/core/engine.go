package core

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/oql"
	"netout/internal/xerr"
)

// Engine executes outlier queries over a heterogeneous information network.
// An Engine is configured once with a measure and a materialization strategy
// and is safe for concurrent use: queries carry their own context and trace,
// and each borrows the materializer handles it runs on (borrow) — the
// engine's own materializer when no other query holds it, views of it
// otherwise — so any number of goroutines may call one Engine, over every
// strategy. The concurrency contract is in DESIGN.md.
type Engine struct {
	g       *hin.Graph
	mat     *Materializer
	measure Measure
	combine Combination
	// parallelism bounds how many local ranges a query's candidates split
	// into (WithQueryParallelism); 0 means GOMAXPROCS, 1 means inline.
	parallelism int
	// rootLent says a query holds mat; viewPool recycles the views the queries
	// overlapping it, and every range after a query's first, run on (borrow).
	rootLent atomic.Bool
	viewPool sync.Pool
	// remotes, when set via WithRemoteShards, scatter queries across
	// out-of-process shards instead of local ranges. The engine does not own
	// the clients.
	remotes []RemoteShard

	// obs, when set via WithObs, receives per-query metrics (latency
	// histograms, outcome counters, vector counters).
	obs *obs.Registry
	// events, when set via WithEventSink, receives one wide Event per
	// completed query (ok, error, partial or recovered panic).
	events obs.EventSink
	// inflight, when set via WithInflight, tracks executing queries for the
	// /debug/requests inspector.
	inflight *obs.Inflight
}

// ctxErr reports the context error, if any (nil context never cancels).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Option configures an Engine.
type Option func(*Engine)

// WithMeasure selects the outlierness measure (default MeasureNetOut).
func WithMeasure(m Measure) Option { return func(e *Engine) { e.measure = m } }

// WithMaterializer selects the materialization strategy (default Baseline).
func WithMaterializer(m *Materializer) Option { return func(e *Engine) { e.mat = m } }

// WithQueryParallelism bounds intra-query parallelism: a query with more than
// a chunk of candidates (128) splits them into up to n contiguous ranges,
// each scored by its own goroutine on a handle of the engine's materializer
// (borrow), and merges the ranges' rankings. n <= 0 (the default) uses GOMAXPROCS;
// n == 1 runs every query inline. Results are identical for every n — the
// ranges change wall-clock time, never the ranking, the skip list or the
// vector counters (execute.go).
func WithQueryParallelism(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.parallelism = n
	}
}

// WithObs connects the engine to an observability registry: every query
// observes its latency and phase breakdown into reg's instruments. nil
// disables it. Queries always carry a Trace regardless.
func WithObs(reg *obs.Registry) Option {
	return func(e *Engine) { e.obs = reg }
}

// WithEventSink connects the engine to its per-query record: every completed
// query (ok, error, partial or recovered panic) emits exactly one obs.Event
// describing what it did — identity, configuration, per-phase costs, kernel
// counts, outcome, and the stack of a recovered panic. The journal, the
// /debug/events ring and the slow-query log (obs.SlowLog) are all sinks;
// obs.CombineSinks feeds several. nil disables emission. The sink must be safe
// for concurrent use; emission is side-effect-free with respect to results, so
// the determinism contract is unaffected.
func WithEventSink(s obs.EventSink) Option {
	return func(e *Engine) { e.events = s }
}

// WithInflight registers every executing query in the given table for the
// /debug/requests live inspector, deregistering on finish. nil disables
// tracking.
func WithInflight(t *obs.Inflight) Option {
	return func(e *Engine) { e.inflight = t }
}

// NewEngine creates an engine over g with the given options. With a registry
// (WithObs) the materializer's instruments, and the in-flight gauge of
// WithInflight, are registered on it, once per pair.
func NewEngine(g *hin.Graph, opts ...Option) *Engine {
	e := &Engine{g: g, measure: MeasureNetOut}
	for _, o := range opts {
		o(e)
	}
	if e.mat == nil {
		e.mat = NewBaseline(g)
	}
	if e.obs != nil {
		RegisterMaterializerMetrics(e.obs, e.mat)
		if e.inflight != nil {
			e.inflight.RegisterMetrics(e.obs)
		}
	}
	return e
}

// Graph returns the engine's network.
func (e *Engine) Graph() *hin.Graph { return e.g }

// QueryParallelism returns the effective bound on a query's local ranges.
func (e *Engine) QueryParallelism() int {
	if e.parallelism > 0 {
		return e.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Entry is one ranked outlier: smaller Score means more outlying.
type Entry struct {
	Vertex hin.VertexID
	Name   string
	Score  float64
}

// Timing is the per-query cost breakdown reported in the Figure 4 study.
// Durations are summed across ranges (CPU time, not wall time); the vector
// counters are exact and identical for every range count.
type Timing struct {
	Total        time.Duration
	SetRetrieval time.Duration
	// NotIndexed is time spent materializing neighbor vectors by network
	// traversal ("not indexed vectors" in Figure 4).
	NotIndexed time.Duration
	// Indexed is time spent loading pre-materialized vectors.
	Indexed time.Duration
	// Scoring is the outlierness calculation time.
	Scoring time.Duration

	TraversedVectors int64
	IndexedVectors   int64
}

// charge adds a materializer stats delta to the breakdown.
func (tm *Timing) charge(d MatStats) {
	tm.NotIndexed += d.TraversalTime
	tm.Indexed += d.IndexedTime
	tm.TraversedVectors += d.TraversedVectors
	tm.IndexedVectors += d.IndexedVectors
}

// Result is the outcome of one query.
type Result struct {
	// Entries is the ranked outlier list, most outlying first (ascending
	// score), truncated to the query's TOP k.
	Entries []Entry
	// Skipped lists candidates with zero visibility under every feature
	// meta-path: they cannot be characterized and are excluded from the
	// ranking.
	Skipped []hin.VertexID
	// CandidateCount and ReferenceCount are the sizes of Sc and Sr.
	CandidateCount, ReferenceCount int
	// Partial marks a degraded result: the query's deadline expired
	// mid-execution (or one of its candidate ranges panicked) and the engine
	// returned the ranking over the candidates scored so far instead of the
	// bare error. Scores of the entries present are exact under every measure
	// (a candidate's score depends only on its own Φ once the reference side
	// is reduced); what is missing is the candidates never reached. Entries and Skipped
	// cover only the processed prefix; CandidateCount still reports the full
	// |Sc|. A progressive run stopped early — by its deadline or by
	// OnSnapshot — is Partial too, its entries the last snapshot's estimates.
	// Cancellation never degrades — a cancelled caller gets the error.
	Partial bool
	Timing  Timing
	// Trace is the per-phase breakdown (parse → validate → plan →
	// materialize → score → rank); phases recorded contiguously, so their
	// durations sum to the trace total. Scoring is fused into the
	// materialize span and the score span is (near-)empty; the span's vector
	// and cache counters aggregate every range and are the same for any range
	// count. Remote execution replaces materialize → score → rank with reduce
	// (reference side, on the coordinator) → scatter (the shards' fused
	// scoring) → merge (k-way merge). Either way a query of more than one
	// range has one ShardSpan per range on Trace.Shards, in index order; on a
	// Partial result those with Partial=true are the ranges that degraded,
	// each contributing the exact prefix it fully scored (Done of
	// Candidates).
	Trace *obs.Trace

	// panics counts the ranges of a Partial result that degraded on a
	// recovered panic (observeQuery).
	panics int
}

// Execute parses, validates and runs a query given as OQL text.
func (e *Engine) Execute(src string) (*Result, error) {
	return e.ExecuteContext(context.Background(), src)
}

// ExecuteContext is Execute with cancellation: the query aborts with the
// context's error at the next per-vertex materialization step (or the next
// hop of the reference side's propagation). The analyst
// interactivity the paper motivates ("react to outliers or further
// elaborate their queries") needs runaway queries to be abortable.
func (e *Engine) ExecuteContext(ctx context.Context, src string) (*Result, error) {
	return e.execute(ctx, src, nil, e.QueryParallelism(), nil)
}

// backHalf runs a resolved query to its answer on hs — a side mode's own
// back half (Explain, SuggestFeatures, progressive execution) — filling res;
// Engine.run is every other query's (a nil backHalf). A side mode touches no
// span: execute closes its one, materialize, after it returns, so no pointer
// to the trace reaches a function value and the served path's stays on the
// stack.
type backHalf func(ctx context.Context, plan *queryPlan, hs handles, res *Result) error

// execute is the one way a query enters the engine: ExecuteContext, a pool's
// workers with what is the pool's per call — its compiled-query cache
// (compiled.go; nil compiles per call) and its bound on the query's local
// ranges — and the side modes with their back half. It is the front half
// every query shares: parse → validate → resolve under one panic recover, one
// trace, the in-flight record, the registry and the wide event. A retained
// compiled entry supplies the canonical text, the resolution and — through
// referenceSide — the reduced reference side, and the parse, validate and
// plan spans close at once; a blank one, a clean complete execution fills.
func (e *Engine) execute(ctx context.Context, src string, cc *compiledCache, ranges int, back backHalf) (res *Result, err error) {
	start := time.Now()
	tr := obs.StartTrace()
	plan := &queryPlan{compiled: cc.lookup(src), ranges: ranges}
	rq, text := plan.compiled.resolved()
	// Deregistration from the /debug/requests inspector is the first defer,
	// so it runs last — after observation — and a panicking query still
	// leaves the table.
	defer func() { e.inflight.Deregister(plan.ifq) }()
	// Panic isolation, before the observation so that it sees the error: a
	// panic in the parser or the engine's own phases returns a *PanicError
	// instead of unwinding through the serving layers (one inside a
	// candidate range is recovered there, see scoreRange).
	var q *oql.Query
	defer func() {
		if r := recover(); r != nil {
			if rq == nil && q == nil {
				// The parser panicked: its span is still open.
				tr.EndPhase("parse", obs.SpanStats{})
			}
			res, err = nil, newPanicError(r)
		}
		e.observeQuery(ctx, tr, text, res, err, plan)
	}()
	if rq == nil {
		// Until it parses, a query is recorded by its raw source (one whose
		// parser panicked too); then its canonical text is rendered once,
		// for whoever records it: the in-flight table now, the event when it
		// finishes.
		text = obs.TruncateQuery(src)
		if q, err = oql.Parse(src); err == nil {
			text = ""
			if e.inflight != nil || e.events != nil {
				text = obs.TruncateQuery(q.String())
			}
		}
	}
	tr.EndPhase("parse", obs.SpanStats{})
	if err != nil {
		return nil, err
	}
	if e.inflight != nil {
		traceID := ""
		if sc, ok := obs.SpanContextFrom(ctx); ok {
			traceID = sc.TraceID
		}
		plan.ifq = e.inflight.Register(obs.RequestIDFrom(ctx), traceID, text)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	plan.ifq.SetPhase("validate")
	validated := func() {
		tr.EndPhase("validate", obs.SpanStats{})
		plan.ifq.SetPhase("plan")
	}
	res = &Result{}
	if rq != nil {
		validated()
	} else {
		if rq, err = e.resolve(ctx, q, validated); err != nil {
			return nil, err
		}
		res.Timing.SetRetrieval = rq.setRetrieval
	}
	plan.resolvedQuery = rq
	res.CandidateCount, res.ReferenceCount = len(rq.cands), len(rq.refs)
	// A cached materializer names the waist that misses of a feature path
	// finish from; observeQuery copies the lines onto the wide event, so
	// /debug/events shows why such a path is cheap — or no longer is.
	if e.mat.cached() {
		for _, p := range plan.paths {
			if line := e.mat.lru.waistLine(p); line != "" {
				tr.AddPlan(line)
			}
		}
	}
	tr.EndPhase("plan", obs.SpanStats{})

	// One handle per local range; a remote query's reference side and every
	// side mode run on one.
	n := min(plan.ranges, chunksOf(len(rq.cands)))
	if len(e.remotes) > 0 {
		n = 1
	}
	hs := e.borrow(n)
	w := hs.work()
	m := meter{hs: hs, first: w, last: w, res: res}
	defer e.giveBack(&m, plan)
	if back == nil {
		err = e.run(ctx, plan, &m, tr)
	} else if err = back(ctx, plan, hs, res); err == nil {
		m.endPhase(tr, "materialize", MatStats{})
	}
	if err != nil {
		return nil, err
	}
	if !res.Partial {
		plan.compiled.retain(text, rq, plan.scorers, plan.reduced)
	}
	res.Timing.Total = time.Since(start)
	return res, nil
}

// stampIdentity copies the request ID and span context carried by ctx onto
// the sealed trace, linking it to the X-Request-Id and traceparent headers
// the client saw.
func stampIdentity(ctx context.Context, trace *obs.Trace) {
	trace.RequestID = obs.RequestIDFrom(ctx)
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		trace.TraceID = sc.TraceID
		trace.SpanID = sc.SpanID
		trace.ParentSpanID = sc.ParentSpanID
	}
}

// observeQuery seals the trace onto the result, feeds the configured registry
// and emits the query's event. The serving layer's request ID, when ctx
// carries one, is stamped onto the trace so the event — and with it
// /debug/slow — is addressable by the X-Request-Id a client saw.
func (e *Engine) observeQuery(ctx context.Context, tr *obs.Tracer, text string, res *Result, err error, plan *queryPlan) {
	trace := tr.Finish()
	stampIdentity(ctx, trace)
	trace.Compiled, trace.RefSide = plan.compiled.labels()
	if res != nil {
		res.Trace = trace
	}
	if e.obs != nil {
		// A recovered panic counts whether it failed the query or one of its
		// ranges degraded on it.
		panics := 0
		if IsPanicError(err) {
			panics = 1
		} else if res != nil {
			panics = res.panics
		}
		if panics > 0 {
			e.obs.Counter("netout_query_panics_total",
				"Recovered panics converted into query errors or degraded ranges.").Add(int64(panics))
		}
		if err == nil && res != nil && res.Partial {
			e.obs.Counter("netout_query_partial_total",
				"Queries answered with a Partial=true result: deadline-degraded, or a progressive run stopped early by OnSnapshot.").Inc()
		}
		e.obs.Counter(`netout_queries_total{outcome="`+xerr.Outcome(err)+`"}`,
			"Queries the engine finished, by taxonomy outcome: ok, or whose fault the failure is.").Inc()
		e.obs.Histogram("netout_query_seconds", "Query wall time.").Observe(trace.Total.Seconds())
		var traversed, indexed int64
		for _, s := range trace.Spans {
			e.obs.Histogram(`netout_query_phase_seconds{phase="`+s.Phase+`"}`,
				"Per-phase query wall time.").Observe(s.Duration.Seconds())
			// Summing across spans covers both phase shapes: local execution
			// attributes all vector work to the materialize span, remote
			// execution splits it between reduce and scatter.
			traversed += s.Stats.TraversedVectors
			indexed += s.Stats.IndexedVectors
		}
		if traversed+indexed > 0 {
			e.obs.Counter("netout_vectors_traversed_total",
				"Neighbor vectors materialized by network traversal.").Add(traversed)
			e.obs.Counter("netout_vectors_indexed_total",
				"Neighbor vectors served from an index or cache.").Add(indexed)
		}
		if len(trace.Shards) > 0 {
			for _, st := range trace.Shards {
				e.obs.Counter(`netout_shard_queries_total{shard="`+strconv.Itoa(st.Shard)+`"}`,
					"Candidate ranges scored, by range index (remote shards and local ranges).").Inc()
				if st.Partial {
					e.obs.Counter("netout_shard_partials_total",
						"Shards that contributed an exact-prefix partial to a degraded query.").Inc()
				}
			}
			if s, ok := trace.Span("merge"); ok {
				e.obs.Histogram("netout_shard_merge_seconds",
					"Coordinator k-way merge time for sharded queries.").Observe(s.Duration.Seconds())
			}
		}
	}
	e.emitEvent(ctx, trace, text, res, err, plan)
}

// emitEvent completes and emits the wide event for one finished query. The
// event's durations and counters are read from the same sealed trace the
// /metrics instruments observed, so the views always agree. query is the text
// already capped for retention (obs.TruncateQuery).
func (e *Engine) emitEvent(ctx context.Context, trace *obs.Trace, query string, res *Result, err error, plan *queryPlan) {
	if e.events == nil {
		return
	}
	ev := trace.Event()
	ev.Query = query
	ev.Measure = e.measure.String()
	ev.Strategy = e.mat.Strategy().String()
	ev.Parallelism = plan.ranges
	ev.QueueWaitUs = obs.QueueWaitFrom(ctx).Microseconds()
	ev.Kernels = kernelDelta(plan.kernels)
	ev.Outcome = xerr.Outcome(err)
	if err != nil {
		// A failure carries its error text and, for a defect, its stack, so a
		// 500's X-Request-Id locates the crashing frame at /debug/slow.
		ev.Error = err.Error()
		ev.Stack = xerr.StackOf(err)
	}
	if res != nil {
		ev.Candidates = res.CandidateCount
		ev.References = res.ReferenceCount
		ev.Entries = len(res.Entries)
		ev.Partial = res.Partial
		if len(res.Entries) > 0 {
			top := res.Entries[0].Score
			ev.TopScore = &top
		}
	}
	e.events.Emit(ev)
}

// kernelCountsOf reads the cumulative traversal-kernel counters of a handle's
// traversers, which are its own under every strategy, so the query that
// borrowed it may read them.
func kernelCountsOf(m *Materializer) metapath.KernelCounts {
	if m.fill != nil {
		return m.tr.KernelCounts().Add(m.fill.KernelCounts())
	}
	return m.tr.KernelCounts()
}

// kernelDelta maps the non-zero per-kernel hop counts of an interval for an
// event.
func kernelDelta(d metapath.KernelCounts) map[string]int64 {
	out := make(map[string]int64, 4)
	for _, k := range [...]struct {
		name string
		hops uint64
	}{{"map", d.Map}, {"dense", d.Dense}, {"merge", d.Merge}, {"pull", d.Pull}} {
		if k.hops > 0 {
			out[k.name] = int64(k.hops)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// resolve turns a parsed query into what every way of running it starts
// from — Execute, progressive execution, Explain and SuggestFeatures: the
// query validated against the schema, Sc and Sr as ascending vertex sets
// (Sr is Sc when COMPARED TO is omitted), and the feature meta-paths with
// their weights. validated, when non-nil, runs between validation and set
// evaluation, where a traced caller closes its validate span. The sets are
// evaluated on a handle the query borrows (evalSet), and setWork is what that
// read.
func (e *Engine) resolve(ctx context.Context, q *oql.Query, validated func()) (*resolvedQuery, error) {
	elemType, err := oql.Validate(q, e.g.Schema())
	if err != nil {
		return nil, err
	}
	if validated != nil {
		validated()
	}
	start := time.Now()
	plan := &resolvedQuery{q: q, elemType: elemType, combine: e.combine}
	hs := e.borrow(1)
	defer e.release(hs)
	tr := hs.mats[0].tr
	before := tr.Work()
	if plan.cands, err = e.evalSet(ctx, q.From, tr); err != nil {
		return nil, err
	}
	plan.refs = plan.cands
	if q.ComparedTo != nil {
		if plan.refs, err = e.evalSet(ctx, q.ComparedTo, tr); err != nil {
			return nil, err
		}
	}
	plan.setWork = tr.Work() - before
	plan.paths = make([]metapath.Path, len(q.Features))
	plan.weights = make([]float64, len(q.Features))
	for m, f := range q.Features {
		if plan.paths[m], err = metapath.FromNames(e.g.Schema(), f.Segments...); err != nil {
			return nil, err
		}
		plan.weights[m] = f.Weight
	}
	plan.setRetrieval = time.Since(start)
	return plan, nil
}

// CandidateSet parses the query and resolves only its candidate set. Used
// by SPM's initialization phase, which needs candidate membership counts
// without paying for scoring.
func (e *Engine) CandidateSet(src string) ([]hin.VertexID, error) {
	q, err := oql.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := oql.Validate(q, e.g.Schema()); err != nil {
		return nil, err
	}
	return e.EvalSet(q.From)
}

// EvalSet resolves a set expression to a sorted slice of vertex IDs.
func (e *Engine) EvalSet(expr oql.SetExpr) ([]hin.VertexID, error) {
	return e.EvalSetContext(context.Background(), expr)
}

// EvalSetContext is EvalSet with cancellation, checked at per-vertex
// granularity while WHERE conditions are evaluated.
func (e *Engine) EvalSetContext(ctx context.Context, expr oql.SetExpr) ([]hin.VertexID, error) {
	hs := e.borrow(1)
	defer e.release(hs)
	return e.evalSet(ctx, expr, hs.mats[0].tr)
}

// evalSet is EvalSetContext on tr, the traverser of a handle the caller
// borrowed: every hop of a chain or a COUNT expands on it.
func (e *Engine) evalSet(ctx context.Context, expr oql.SetExpr, tr *metapath.Traverser) ([]hin.VertexID, error) {
	switch x := expr.(type) {
	case *oql.SetChain:
		return e.evalChain(ctx, x, tr)
	case *oql.SetBinary:
		left, err := e.evalSet(ctx, x.Left, tr)
		if err != nil {
			return nil, err
		}
		right, err := e.evalSet(ctx, x.Right, tr)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case oql.SetUnion:
			return mergeUnion(left, right), nil
		case oql.SetIntersect:
			return mergeIntersect(left, right), nil
		case oql.SetExcept:
			return mergeExcept(left, right), nil
		}
		return nil, xerr.Newf(xerr.Internal, "core: unknown set operator %v", x.Op)
	}
	return nil, xerr.Newf(xerr.Internal, "core: unknown set expression %T", expr)
}

func (e *Engine) evalChain(ctx context.Context, c *oql.SetChain, tr *metapath.Traverser) ([]hin.VertexID, error) {
	s := e.g.Schema()
	anchorType, ok := s.TypeByName(c.TypeName)
	if !ok {
		return nil, xerr.Newf(xerr.InvalidArgument, "core: unknown vertex type %q", c.TypeName)
	}
	var set []hin.VertexID
	if len(c.Names) == 0 {
		set = append(set, e.g.VerticesOfType(anchorType)...)
	} else {
		for _, name := range c.Names {
			v, ok := e.g.VertexByName(anchorType, name)
			if !ok {
				return nil, xerr.Newf(xerr.NotFound, "core: no %s named %q", c.TypeName, name)
			}
			set = append(set, v)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		set = dedupSorted(set)
	}
	for _, step := range c.Steps {
		t, ok := s.TypeByName(step)
		if !ok {
			return nil, xerr.Newf(xerr.InvalidArgument, "core: unknown vertex type %q", step)
		}
		set = tr.ExpandSet(set, t)
	}
	if c.Where != nil {
		filtered := set[:0:0]
		for _, v := range set {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			keep, err := e.evalCond(ctx, c.Where, v, tr)
			if err != nil {
				return nil, err
			}
			if keep {
				filtered = append(filtered, v)
			}
		}
		set = filtered
	}
	return set, nil
}

func (e *Engine) evalCond(ctx context.Context, cond oql.Cond, v hin.VertexID, tr *metapath.Traverser) (bool, error) {
	switch c := cond.(type) {
	case *oql.CondBinary:
		l, err := e.evalCond(ctx, c.Left, v, tr)
		if err != nil {
			return false, err
		}
		// No short-circuit subtlety needed: conditions are side-effect free,
		// but avoid the second evaluation when the outcome is decided.
		if c.Op == oql.CondAnd && !l {
			return false, nil
		}
		if c.Op == oql.CondOr && l {
			return true, nil
		}
		return e.evalCond(ctx, c.Right, v, tr)
	case *oql.CondNot:
		inner, err := e.evalCond(ctx, c.Inner, v, tr)
		return !inner, err
	case *oql.CondCount:
		n, err := e.countNeighbors(v, c.Segments, tr)
		if err != nil {
			return false, err
		}
		return c.Op.Eval(float64(n), c.Value), nil
	}
	return false, xerr.Newf(xerr.Internal, "core: unknown condition %T", cond)
}

// countNeighbors counts the distinct meta-path neighbors of v along the
// dotted steps: COUNT(A.paper) is the number of distinct papers of an
// author ("has published at least 10 papers").
func (e *Engine) countNeighbors(v hin.VertexID, steps []string, tr *metapath.Traverser) (int, error) {
	s := e.g.Schema()
	set := []hin.VertexID{v}
	for _, step := range steps {
		t, ok := s.TypeByName(step)
		if !ok {
			return 0, xerr.Newf(xerr.InvalidArgument, "core: unknown vertex type %q", step)
		}
		set = tr.ExpandSet(set, t)
	}
	return len(set), nil
}

func dedupSorted(xs []hin.VertexID) []hin.VertexID {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

func mergeUnion(a, b []hin.VertexID) []hin.VertexID {
	out := make([]hin.VertexID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeIntersect(a, b []hin.VertexID) []hin.VertexID {
	var out []hin.VertexID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func mergeExcept(a, b []hin.VertexID) []hin.VertexID {
	var out []hin.VertexID
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}
