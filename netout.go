// Package netout is a query-based outlier detection system for
// heterogeneous information networks, implementing Kuck, Zhuang, Yan, Cam
// and Han, "Query-Based Outlier Detection in Heterogeneous Information
// Networks" (EDBT 2015).
//
// A heterogeneous information network (HIN) has typed vertices (papers,
// authors, venues, ...) and typed links. Outliers in such a network are
// relative to a user's viewpoint, so the system is driven by declarative
// queries:
//
//	FIND OUTLIERS
//	FROM author{"Christos Faloutsos"}.paper.author  // candidate set
//	COMPARED TO venue{"KDD"}.paper.author           // reference set (optional)
//	JUDGED BY author.paper.venue : 2.0              // weighted feature meta-paths
//	TOP 10;
//
// Candidates are ranked by the NetOut measure: the sum over the reference
// set of normalized connectivity, the number of symmetric meta-path
// instances linking a candidate to each reference vertex, normalized by the
// candidate's own visibility. PathSim- and cosine-based variants are
// provided for comparison, plus LOF and kNN-distance baselines.
//
// Basic usage:
//
//	schema := netout.MustSchema("author", "paper", "venue", "term")
//	// ... allow links, build the graph with netout.NewBuilder(schema) ...
//	eng := netout.NewEngine(g)
//	res, err := eng.Execute(`FIND OUTLIERS FROM ... JUDGED BY ... TOP 10;`)
//
// For low query latency the engine can pre-materialize length-2 meta-path
// neighbor vectors for every vertex (PM) or only for vertices that appear
// frequently in a query workload (SPM):
//
//	eng := netout.NewEngine(g, netout.WithMaterializer(netout.NewPM(g)))
package netout

import (
	"context"
	"io"
	"net/http"
	"time"

	"netout/internal/aminer"
	"netout/internal/core"
	"netout/internal/eval"
	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/hinio"
	"netout/internal/lof"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/oql"
	"netout/internal/rel"
	"netout/internal/sparse"
	"netout/internal/walk"
	"netout/internal/xerr"
)

// ---------------------------------------------------------------------------
// Network types

// Core network types, re-exported from the graph substrate.
type (
	// Graph is an immutable heterogeneous information network.
	Graph = hin.Graph
	// Schema declares vertex types and which links are allowed.
	Schema = hin.Schema
	// TypeID identifies a vertex type within a Schema.
	TypeID = hin.TypeID
	// VertexID identifies a vertex in a Graph.
	VertexID = hin.VertexID
	// Builder accumulates vertices and edges and produces a Graph.
	Builder = hin.Builder
)

// MustSchema creates a schema with the given vertex type names, panicking on
// error, for statically-known schemas.
func MustSchema(typeNames ...string) *Schema { return hin.MustSchema(typeNames...) }

// NewBuilder creates a graph builder for the given schema.
func NewBuilder(schema *Schema) *Builder { return hin.NewBuilder(schema) }

// ---------------------------------------------------------------------------
// Meta-paths

// MetaPath is an ordered sequence of vertex types, e.g. (author paper venue).
type MetaPath = metapath.Path

// ParseMetaPath parses the dotted form "author.paper.venue" against a schema.
func ParseMetaPath(s *Schema, dotted string) (MetaPath, error) {
	return metapath.ParseDotted(s, dotted)
}

// NewMetaPath builds a meta-path by resolving type names against a schema.
func NewMetaPath(s *Schema, typeNames ...string) (MetaPath, error) {
	return metapath.FromNames(s, typeNames...)
}

// Traverser materializes meta-path neighbor vectors by network traversal.
type Traverser = metapath.Traverser

// NewTraverser creates a traverser over g.
func NewTraverser(g *Graph) *Traverser { return metapath.NewTraverser(g) }

// Vector is a sparse neighbor vector Φ_P(v): coordinate u holds the number
// of meta-path instances from v to vertex u.
type Vector = sparse.Vector

// ---------------------------------------------------------------------------
// Queries

// Query is a parsed FIND OUTLIERS statement.
type Query = oql.Query

// ParseQuery parses an outlier query:
//
//	FIND OUTLIERS FROM ... [COMPARED TO ...] JUDGED BY ... [TOP n];
func ParseQuery(src string) (*Query, error) { return oql.Parse(src) }

// ValidateQuery checks a parsed query against a schema and returns the
// element type of its candidate set.
func ValidateQuery(q *Query, s *Schema) (TypeID, error) { return oql.Validate(q, s) }

// ---------------------------------------------------------------------------
// Engine, measures and strategies

// Engine executes outlier queries. Configure with WithMeasure and
// WithMaterializer.
type Engine = core.Engine

// EngineOption configures an Engine.
type EngineOption = core.Option

// Result is a ranked query outcome; Timing is the per-query cost breakdown.
type (
	Result = core.Result
	Timing = core.Timing
)

// Measure selects the outlierness formula; smaller scores are more outlying.
type Measure = core.Measure

// The available outlierness measures.
const (
	MeasureNetOut  = core.MeasureNetOut
	MeasurePathSim = core.MeasurePathSim
	MeasureCosSim  = core.MeasureCosSim
)

// ParseMeasure resolves "netout", "pathsim" or "cossim".
func ParseMeasure(name string) (Measure, error) { return core.ParseMeasure(name) }

// Materializer produces meta-path neighbor vectors, possibly from an index
// or a cache: one type for every strategy, one goroutine's at a time.
type Materializer = *core.Materializer

// SPMConfig configures selective pre-materialization.
type SPMConfig = core.SPMConfig

// NewEngine creates a query engine over g (default: NetOut measure,
// baseline materialization).
func NewEngine(g *Graph, opts ...EngineOption) *Engine { return core.NewEngine(g, opts...) }

// WithMeasure selects the outlierness measure.
func WithMeasure(m Measure) EngineOption { return core.WithMeasure(m) }

// WithMaterializer selects the materialization strategy.
func WithMaterializer(m Materializer) EngineOption { return core.WithMaterializer(m) }

// WithQueryParallelism bounds intra-query parallelism: a query with more
// than a chunk of candidates (128) splits them into up to n contiguous
// ranges, each scored by its own goroutine on a view of the engine's
// materializer, and k-way merges the ranges' rankings. n <= 0 (the default)
// uses GOMAXPROCS; n == 1 runs every query inline. Results are identical for
// every n, and under NetOut a range that runs out of deadline or panics
// degrades the query to an exact-prefix partial instead of failing it.
func WithQueryParallelism(n int) EngineOption { return core.WithQueryParallelism(n) }

// WithShards is WithQueryParallelism(n).
//
// Deprecated: in-process sharding and intra-query parallelism are one
// mechanism; use WithQueryParallelism.
func WithShards(n int) EngineOption { return core.WithQueryParallelism(n) }

// The versioned shard protocol: a coordinator speaks to shards in
// ShardRequest/ShardResponse pairs, with the reference reduction broadcast
// alongside as a ShardBroadcast; internal/shardnet serializes exactly these
// messages across a network boundary.
type (
	ShardRequest   = core.ShardRequest
	ShardResponse  = core.ShardResponse
	ShardBroadcast = core.ShardBroadcast
)

// ShardProtocolVersion is the current shard protocol version, stamped on
// every ShardRequest and echoed by every ShardResponse. Both sides of the
// wire enforce it: shard servers reject requests from a foreign revision,
// and coordinators fail queries whose replies carry one.
const ShardProtocolVersion = core.ShardProtocolVersion

// RemoteShard is a coordinator-side client for one out-of-process shard
// (implemented by shardnet.Client); see WithRemoteShards.
type RemoteShard = core.RemoteShard

// WithRemoteShards scatters queries across out-of-process shard servers,
// one RemoteShard client per shard in shard order, instead of local ranges.
// Results stay bit-identical to inline execution while every shard is
// healthy; a lost, shed or panicking remote shard degrades the query to an
// exact-prefix partial. Takes precedence over WithQueryParallelism. The
// engine does not own the clients — close them where they were dialed.
func WithRemoteShards(shards ...RemoteShard) EngineOption {
	return core.WithRemoteShards(shards...)
}

// NewBaseline returns the traversal-only materializer.
func NewBaseline(g *Graph) Materializer { return core.NewBaseline(g) }

// NewPM pre-materializes all length-2 meta-path neighbor vectors.
func NewPM(g *Graph) Materializer { return core.NewPM(g) }

// NewSPM selectively pre-materializes for vertices whose relative frequency
// across the initialization queries' candidate sets reaches cfg.Threshold.
func NewSPM(g *Graph, initQueries []string, cfg SPMConfig) (Materializer, error) {
	return core.NewSPM(g, initQueries, cfg)
}

// NewCached returns a materializer that memoizes neighbor vectors in an
// LRU cache bounded to maxBytes: no offline indexing phase, but repeated
// workloads approach PM speed for their hot vertices. Entries are shared at
// (canonical subpath, vertex) granularity across queries and views: a miss
// resumes from the longest cached prefix of the meta-path, intermediate
// frontiers small enough for the budget are kept under it, and a miss whose
// frontier reaches a waist of the path (a type much smaller than its
// neighbours) is finished from a table of suffix vectors under that budget
// too — bit-identical to whole-path evaluation; only the work skipped
// changes. Like every Materializer the value is one goroutine's at a time:
// the engine runs each query on a view of its own that shares the same warm
// cache, concurrent misses of views on the same vector are deduplicated so the
// network is traversed once, and each view counts its own work.
func NewCached(g *Graph, maxBytes int64, _ ...CacheOption) (Materializer, error) {
	return core.NewCached(g, maxBytes)
}

// CacheOption is what the two deprecated options below return; NewCached
// ignores them.
type CacheOption struct{}

// WithSubpathCache does nothing: subpath keys are the only cache mode.
//
// Deprecated: drop the option.
func WithSubpathCache() CacheOption { return CacheOption{} }

// WithCachePlanner does nothing: the cache admits an intermediate frontier by
// its measured size and plans nothing.
//
// Deprecated: drop the option.
func WithCachePlanner(bool) CacheOption { return CacheOption{} }

// CacheStats reports hit/miss/eviction counters of a cached materializer,
// summed over its views. Deduped counts loads that were coalesced into
// another view's in-flight traversal (a subset of Hits).
// PrefixHits/WaistFinishes/HopsSaved report partial reuse on the miss path.
type CacheStats = core.CacheStats

// CacheStatsOf extracts cache counters from a NewCached materializer.
func CacheStatsOf(m Materializer) (CacheStats, bool) { return core.CacheStatsOf(m) }

// SaveIndexFile persists a pre-materialized PM or SPM index so the offline
// indexing phase can be shipped to query servers. The index must be loaded
// against the same graph it was built from.
func SaveIndexFile(m Materializer, path string) error { return core.SaveIndexFile(m, path) }

// LoadIndexFile reads an index from a file.
func LoadIndexFile(g *Graph, path string) (Materializer, error) {
	return core.LoadIndexFile(g, path)
}

// Combination selects how multiple feature meta-paths combine into one
// score: averaged per-path scores or concatenated connectivity.
type Combination = core.Combination

// The available multi-path combination modes.
const (
	CombineAverage = core.CombineAverage
	CombineConcat  = core.CombineConcat
)

// ParseCombination resolves "average" or "concat".
func ParseCombination(name string) (Combination, error) { return core.ParseCombination(name) }

// WithCombination selects the multi-path combination mode.
func WithCombination(c Combination) EngineOption { return core.WithCombination(c) }

// Progressive execution (approximate top-k with confidences while the query
// is being processed — the Section 8 extension).
type (
	ProgressiveOptions  = core.ProgressiveOptions
	ProgressiveSnapshot = core.ProgressiveSnapshot
)

// StopWhenStable builds an OnSnapshot callback that stops a progressive
// query once the top-k identity is unchanged for the given number of
// consecutive snapshots.
func StopWhenStable(k, rounds int, inner func(ProgressiveSnapshot) bool) func(ProgressiveSnapshot) bool {
	return core.StopWhenStable(k, rounds, inner)
}

// Query suggestion (alternative feature meta-paths ranked by how sharply
// they separate outliers — the Section 8 extension).
type Suggestion = core.Suggestion

// FormatSuggestions renders suggestions for terminal display.
func FormatSuggestions(sugs []Suggestion, limit int) string {
	return core.FormatSuggestions(sugs, limit)
}

// Batch execution.
type (
	BatchOptions = core.BatchOptions
	BatchResult  = core.BatchResult
)

// ExecuteBatch runs queries in parallel on eng, from opts.Workers goroutines
// that each claim the next unstarted query: an Engine is safe for concurrent
// use, each query borrowing the materializer handles it runs on — views over
// PM/SPM indexes read-only, over one warm cache, so one query's traversal is
// every other query's cache hit — and counting on them its own work alone.
func ExecuteBatch(eng *Engine, queries []string, opts BatchOptions) []BatchResult {
	return core.ExecuteBatch(eng, queries, opts)
}

// Serving (an admission gate for online query traffic in front of one engine
// — the concurrent complement to ExecuteBatch).
type (
	ServePool    = core.ServePool
	ServeOptions = core.ServeOptions
)

// NewServePool builds an admission gate that accepts queries from any number
// of goroutines via ServePool.Execute and starts no goroutine of its own: each
// query runs on its caller's goroutine, on eng itself, once it holds one of
// Workers run tokens — configure measure, materializer, shards, registry and
// sinks on eng, once — and ServeOptions holds only the pool's run-token count,
// queue bound and default deadline. Close stops admitting and waits for the
// queries already admitted.
func NewServePool(eng *Engine, opts ServeOptions) *ServePool {
	return core.NewServePool(eng, opts)
}

// Serving robustness: admission control, panic isolation and the typed
// error taxonomy (DESIGN.md, "Serving robustness").

// ErrorCode is a stable, machine-readable classification of a serving
// error. Codes — not error strings — are the contract HTTP statuses and
// metrics labels are derived from; internal/xerr declares them all.
type ErrorCode = xerr.Code

// The serving error codes the programs construct.
const (
	// CodeInvalidArgument: the query is malformed or fails validation; the
	// client must change it (the ONLY code that maps to HTTP 400).
	CodeInvalidArgument = xerr.InvalidArgument
	// CodeNotFound: a vertex or resource named by the query does not exist.
	CodeNotFound = xerr.NotFound
	// CodeInternal: the server's own fault — bugs, recovered panics, and
	// every unclassified error.
	CodeInternal = xerr.Internal
)

// Errorf builds a classified failure with fmt.Errorf semantics (%w wraps).
func Errorf(code ErrorCode, format string, args ...any) error {
	return xerr.Newf(code, format, args...)
}

// ErrorCodeOf classifies any error: typed errors report their own code,
// context.DeadlineExceeded / context.Canceled map to their codes, and
// everything unclassified is CodeInternal — an unknown failure is the
// server's fault, never the client's. nil reports "".
func ErrorCodeOf(err error) ErrorCode { return xerr.CodeOf(err) }

// ErrorHTTPStatus maps an error to its HTTP status: 400 InvalidArgument,
// 404 NotFound, 429 ResourceExhausted, 504 DeadlineExceeded,
// 499 Canceled (StatusClientClosedRequest), 503 Unavailable, 500 otherwise;
// nil maps to 200.
func ErrorHTTPStatus(err error) int { return xerr.HTTPStatus(err) }

// StatusClientClosedRequest is the non-standard 499 status (from nginx)
// written for canceled requests, distinguishing "the client hung up" from
// the server-fault 5xx classes in access logs and metrics.
const StatusClientClosedRequest = xerr.StatusClientClosedRequest

// ContextWithRequestID returns ctx carrying a request correlation ID that
// ServePool.Execute and the engine will propagate into traces, events and
// returned errors.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// NewRequestID generates a fresh process-unique request ID.
func NewRequestID() string { return obs.NewRequestID() }

// SpanContext is a W3C Trace Context span identity (trace ID, span ID,
// parent span ID, flags) for cross-process trace propagation.
type SpanContext = obs.SpanContext

// ParseTraceparent parses a W3C `traceparent` header value; ok=false means
// "no usable incoming trace" (mint a fresh one), never an error.
func ParseTraceparent(h string) (SpanContext, bool) { return obs.ParseTraceparent(h) }

// NewTraceID returns a fresh random 32-hex-char W3C trace ID.
func NewTraceID() string { return obs.NewTraceID() }

// ContextWithSpanContext returns ctx carrying a span context that the engine
// stamps onto the query's trace (TraceID/SpanID/ParentSpanID) and wide event.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return obs.WithSpanContext(ctx, sc)
}

// ---------------------------------------------------------------------------
// Observability (metrics registry, query traces, slow-query log, admin HTTP)

// Observability types: a MetricsRegistry holds atomic counters, gauges and
// fixed-bucket latency histograms exposed in Prometheus text format; a
// SlowLog is the EventSink that retains the N slowest queries' events and the
// last N failures'.
type (
	MetricsRegistry = obs.Registry
	SlowLog         = obs.SlowLog
)

// DefaultMetrics returns the process-wide metrics registry.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// NewSlowLog creates a slow-query log retaining the n slowest queries and
// the n most recent failures; hand it to WithEventSink (through
// CombineEventSinks when there are other sinks) and to NewAdminMux.
func NewSlowLog(n int) *SlowLog { return obs.NewSlowLog(n) }

// WithObs connects an engine to a metrics registry: every query then observes
// its latency, phase breakdown and outcome into the registry's instruments.
func WithObs(reg *MetricsRegistry) EngineOption { return core.WithObs(reg) }

// Wide-event query journal: one flat JSON record per completed query (ok,
// error, partial or recovered panic), emitted through an EventSink.
type (
	// QueryEventPhase is one wide event's per-phase row.
	QueryEventPhase = obs.EventPhase
	// EventSink receives completed query events (must be concurrency-safe).
	EventSink = obs.EventSink
	// EventRing retains the last N events in memory for /debug/events.
	EventRing = obs.EventRing
	// Inflight is the live table of executing queries behind /debug/requests.
	Inflight = obs.Inflight
)

// WithEventSink connects an engine to a wide-event journal: every completed
// query emits exactly one wide event. nil disables emission.
func WithEventSink(s EventSink) EngineOption { return core.WithEventSink(s) }

// WithInflight registers every executing query in the table for the live
// /debug/requests inspector. nil disables tracking.
func WithInflight(t *Inflight) EngineOption { return core.WithInflight(t) }

// NewEventRing creates a bounded in-memory event ring retaining the n most
// recent events (n <= 0 defaults to 256).
func NewEventRing(n int) *EventRing { return obs.NewEventRing(n) }

// NewJSONLEventWriter returns a sink appending one JSON object per line to w
// (the journal file behind -event-log). Writes are serialized; a write error
// disables further output rather than failing queries.
func NewJSONLEventWriter(w io.Writer) EventSink { return obs.NewJSONLWriter(w) }

// NewSampledEventSink wraps inner with deterministic sampling: every error,
// partial and slow (>= slow, 0 disables) event passes; other OK events pass
// for a request-ID-hash fraction keep in [0, 1].
func NewSampledEventSink(inner EventSink, keep float64, slow time.Duration) EventSink {
	return obs.NewSampledSink(inner, keep, slow)
}

// CombineEventSinks fans events out to all given sinks, dropping nils; it
// returns nil when nothing remains.
func CombineEventSinks(sinks ...EventSink) EventSink { return obs.CombineSinks(sinks...) }

// NewInflight creates an empty in-flight query table.
func NewInflight() *Inflight { return obs.NewInflight() }

// RegisterProcessMetrics adds process-level gauges (uptime, goroutines,
// heap in use) to a registry.
func RegisterProcessMetrics(reg *MetricsRegistry) { obs.RegisterProcessMetrics(reg) }

// AdminOption configures optional NewAdminMux surfaces (/readyz readiness,
// /debug/events, /debug/requests).
type AdminOption = obs.AdminOption

// AdminWithReadiness installs a readiness check behind /readyz: nil means
// ready (200), an error means not ready (503). Wire ServePool.Ready here so
// a draining replica stops taking traffic without failing liveness.
func AdminWithReadiness(check func() error) AdminOption { return obs.WithReadiness(check) }

// AdminWithEventRing serves the ring's retained events as JSON at
// /debug/events.
func AdminWithEventRing(ring *EventRing) AdminOption { return obs.WithEventRing(ring) }

// AdminWithInflight serves the live in-flight query table at /debug/requests.
func AdminWithInflight(t *Inflight) AdminOption { return obs.WithInflight(t) }

// NewAdminMux builds the serving admin endpoint: /metrics (Prometheus text
// format), /healthz, /readyz, /debug/slow, /debug/events, /debug/requests
// and the net/http/pprof handlers. Mount it on an access-controlled address.
func NewAdminMux(reg *MetricsRegistry, slow *SlowLog, opts ...AdminOption) *http.ServeMux {
	return obs.NewAdminMux(reg, slow, opts...)
}

// ScoreVectors scores candidate neighbor vectors against reference vectors
// under a measure, without an engine (useful for custom feature pipelines).
func ScoreVectors(m Measure, cands, refs []Vector) []float64 {
	return core.ScoreVectors(m, cands, refs)
}

// ---------------------------------------------------------------------------
// Query workloads (Table 4 style)

// QueryTemplate is a query template with a "{}" placeholder for a vertex name.
type QueryTemplate = core.Template

// PaperTemplates returns the three query templates of the paper's Table 4.
func PaperTemplates() []QueryTemplate { return core.PaperTemplates() }

// RandomVertexNames samples n vertex names of a type, deterministically.
func RandomVertexNames(g *Graph, typeName string, n int, seed int64) ([]string, error) {
	return core.RandomVertexNames(g, typeName, n, seed)
}

// BuildQuerySet instantiates a template once per name.
func BuildQuerySet(t QueryTemplate, names []string) []string {
	return core.BuildQuerySet(t, names)
}

// ---------------------------------------------------------------------------
// Baselines

// LOFOptions configures the Local Outlier Factor baseline.
type LOFOptions = lof.Options

// LOFScores computes LOF over feature vectors (larger = more outlying).
func LOFScores(points []Vector, opts LOFOptions) ([]float64, error) {
	return lof.Scores(points, opts)
}

// KNNOutlierScores computes the kNN-distance outlier score of Ramaswamy et
// al. (larger = more outlying).
func KNNOutlierScores(points []Vector, k int) ([]float64, error) {
	return lof.KNNScores(points, k, nil)
}

// CosineDistance is the cosine distance function for the baselines
// (LOFOptions.Distance; Euclidean is the default).
var CosineDistance = lof.Cosine

// ---------------------------------------------------------------------------
// Synthetic networks and I/O

// GenConfig configures the synthetic DBLP-like network generator; Planted
// configures the case-study outlier profiles; Manifest records what was
// planted.
type (
	GenConfig  = gen.Config
	GenPlanted = gen.Planted
	Manifest   = gen.Manifest
)

// ScaledGenConfig scales the default background network by a factor.
func ScaledGenConfig(factor int) GenConfig { return gen.Scaled(factor) }

// Generate builds a synthetic bibliographic network.
func Generate(cfg GenConfig) (*Graph, *Manifest, error) { return gen.Generate(cfg) }

// LoadGraph reads a network from a file (.json → JSON, otherwise TSV).
func LoadGraph(path string) (*Graph, error) { return hinio.Load(path) }

// SaveGraph writes a network to a file (.json → JSON, otherwise TSV).
func SaveGraph(path string, g *Graph) error { return hinio.Save(path, g) }

// ---------------------------------------------------------------------------
// Relational bridge (Section 8: outlier queries over relational databases)

// Relational store types: entity tables become vertex types, foreign keys
// and junction tables become links.
type (
	RelDB           = rel.DB
	RelTableDef     = rel.TableDef
	RelColumn       = rel.Column
	RelRow          = rel.Row
	RelBridgeConfig = rel.BridgeConfig
	RelEntityTable  = rel.EntityTable
)

// Relational column types.
const (
	RelText = rel.TextCol
	RelInt  = rel.IntCol
)

// NewRelDB creates an empty in-memory relational database.
func NewRelDB() *RelDB { return rel.NewDB() }

// RelToHIN converts a relational database into a heterogeneous information
// network, after which outlier queries run unchanged.
func RelToHIN(db *RelDB, cfg RelBridgeConfig) (*Graph, error) { return rel.ToHIN(db, cfg) }

// ---------------------------------------------------------------------------
// ArnetMiner import (the paper's data-set format)

// AminerBuildOptions configures network construction from parsed records.
type AminerBuildOptions = aminer.BuildOptions

// LoadAminer parses a dump file and builds the network in one step.
func LoadAminer(path string, opts AminerBuildOptions) (*Graph, error) {
	return aminer.Load(path, opts)
}

// ---------------------------------------------------------------------------
// Result comparison

// OverlapAtK reports how many vertices two results share in their top-k
// prefixes, plus the Jaccard similarity of those prefixes.
func OverlapAtK(a, b *Result, k int) (shared int, jaccard float64) {
	return core.OverlapAtK(a, b, k)
}

// SpearmanRho computes Spearman's rank correlation over the vertices both
// results rank.
func SpearmanRho(a, b *Result) (float64, error) { return core.SpearmanRho(a, b) }

// InducedSubgraph builds the subgraph induced by the given vertices,
// returning the new graph and the old→new vertex mapping.
func InducedSubgraph(g *Graph, vertices []VertexID) (*Graph, map[VertexID]VertexID, error) {
	return hin.InducedSubgraph(g, vertices)
}

// EgoNetwork returns the vertices within hops undirected hops of the seeds.
func EgoNetwork(g *Graph, seeds []VertexID, hops int) ([]VertexID, error) {
	return hin.EgoNetwork(g, seeds, hops)
}

// ---------------------------------------------------------------------------
// Random-walk similarities (the alternatives Section 5.2 contrasts with)

// PPROptions configures Personalized PageRank (random walk with restart).
type PPROptions = walk.PPROptions

// PPROutlierScores scores candidates as Ω(vi) = Σ_{vj∈Sr} ppr_vi(vj)
// (smaller = more outlying).
func PPROutlierScores(g *Graph, cands, refs []VertexID, opts PPROptions) ([]float64, error) {
	return walk.PPROutlierScores(g, cands, refs, opts)
}

// PPRMetaPathOutlierScores scores candidates under the constrained walk,
// excluding the self term (smaller = more outlying).
func PPRMetaPathOutlierScores(g *Graph, p MetaPath, cands, refs []VertexID, opts PPROptions) ([]float64, error) {
	return walk.PPRMetaPathOutlierScores(g, p, cands, refs, opts)
}

// SimRankOptions configures SimRank; SimRankMatrix holds its pairwise
// fixed point.
type (
	SimRankOptions = walk.SimRankOptions
	SimRankMatrix  = walk.SimRankMatrix
)

// SimRank computes the classic SimRank fixed point (O(n²) — run it on an
// ego-network subgraph for large networks).
func SimRank(g *Graph, opts SimRankOptions) (*SimRankMatrix, error) { return walk.SimRank(g, opts) }

// SimRankOutlierScores scores candidates as Ω(vi) = Σ_{vj∈Sr} s(vi, vj).
func SimRankOutlierScores(m *SimRankMatrix, cands, refs []VertexID) []float64 {
	return walk.SimRankOutlierScores(m, cands, refs)
}

// ---------------------------------------------------------------------------
// Ranking evaluation against ground truth

// EvalReport bundles precision/recall/AP/AUC for one method.
type EvalReport = eval.Report

// Evaluate computes the full report for one method's ranking.
func Evaluate(method string, ranked []string, positives map[string]bool, k int) (EvalReport, error) {
	return eval.Evaluate(method, ranked, positives, k)
}

// FormatEvalReports renders reports as an aligned table.
func FormatEvalReports(reports []EvalReport) string { return eval.FormatReports(reports) }
