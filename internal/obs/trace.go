package obs

import (
	"fmt"
	"strings"
	"time"
)

// The engine's query pipeline is traced as a sequence of contiguous phase
// spans: parse → validate → plan → materialize → score → rank. Each span
// records its wall time plus the materializer work it caused (vectors
// materialized by traversal or index, cache hit/miss deltas). Spans tile
// the query's wall clock — each phase ends exactly where the next begins —
// so the per-phase durations sum to the trace total up to the (sub-µs)
// bookkeeping tail after the last phase.

// SpanStats is the materializer work attributed to one phase.
type SpanStats struct {
	// TraversedVectors and IndexedVectors count neighbor vectors produced by
	// network traversal vs. index/cache lookup during the phase.
	TraversedVectors, IndexedVectors int64
	// CacheHits and CacheMisses are the cached materializer's counter deltas
	// over the phase (zero for uncached strategies).
	CacheHits, CacheMisses int64
}

// Span is one phase of a query trace.
type Span struct {
	Phase string
	// Start is the phase's offset from the trace's begin time.
	Start time.Duration
	// Duration is the phase's wall time.
	Duration time.Duration
	Stats    SpanStats
}

// Trace is the per-query phase breakdown attached to a query result.
type Trace struct {
	// RequestID is the serving layer's per-request correlation ID ("" for
	// queries executed outside a serving context). It links this trace to
	// the HTTP response's X-Request-Id header and the slow-log entry.
	RequestID string
	// TraceID, SpanID and ParentSpanID are the distributed trace identity
	// stamped from the context's SpanContext when the query ran under one
	// (see tracectx.go); "" otherwise. TraceID links this query to the
	// caller's trace across process boundaries; ParentSpanID is the caller's
	// span.
	TraceID, SpanID, ParentSpanID string
	// Begin is when the query started.
	Begin time.Time
	// Total is the query's wall time from Begin to Finish.
	Total time.Duration
	// Spans are the phases in execution order.
	Spans []Span
	// Shards is the per-shard breakdown of a sharded (scatter–gather)
	// execution, one entry per shard in index order; empty for unsharded
	// queries. The shards' wall clocks overlap — they run concurrently
	// inside the scatter span — so their durations do NOT sum into Total.
	Shards []ShardSpan
	// Plan names, one rendered line per feature meta-path that has one, the
	// waist a cached materializer finishes that path's misses from and where
	// its numerators came from when scored from norms (Event.Plan).
	Plan []string
	// Compiled says whether a serve pool held the query text's compiled entry
	// ("hit" or "miss"), RefSide whether the reduced reference side came from
	// it ("memo") or was computed; both "" for a query outside a pool.
	Compiled, RefSide string
}

// ShardSpan is one shard's contribution to a scattered query.
type ShardSpan struct {
	// Shard is the shard index in [0, S).
	Shard int
	// Addr is the remote shard's endpoint ("" for in-process shards).
	Addr string
	// Duration is the shard's wall time for this query.
	Duration time.Duration
	// Candidates is the shard's candidate slice size; Done counts the
	// candidates it fully scored (== Candidates for a healthy shard).
	Candidates, Done int
	// Partial marks a shard that contributed an exact-prefix partial; Err
	// is its classified error text ("" for a healthy shard).
	Partial bool
	Err     string
}

// Span returns the span for a phase, if recorded.
func (t *Trace) Span(phase string) (Span, bool) {
	for _, s := range t.Spans {
		if s.Phase == phase {
			return s, true
		}
	}
	return Span{}, false
}

// Format renders the trace for terminal display, one line per phase.
func (t *Trace) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: total %v over %d phases", t.Total.Round(time.Microsecond), len(t.Spans))
	if t.RequestID != "" {
		fmt.Fprintf(&sb, "  rid=%s", t.RequestID)
	}
	if t.TraceID != "" {
		fmt.Fprintf(&sb, "  trace=%s", t.TraceID)
	}
	if t.Compiled != "" {
		fmt.Fprintf(&sb, "  compiled=%s refside=%s", t.Compiled, t.RefSide)
	}
	sb.WriteString("\n")
	for _, s := range t.Spans {
		fmt.Fprintf(&sb, "  %-12s %10v", s.Phase, s.Duration.Round(time.Microsecond))
		if st := s.Stats; st != (SpanStats{}) {
			fmt.Fprintf(&sb, "  (%d traversed, %d indexed", st.TraversedVectors, st.IndexedVectors)
			if st.CacheHits+st.CacheMisses > 0 {
				fmt.Fprintf(&sb, ", cache %d hit / %d miss", st.CacheHits, st.CacheMisses)
			}
			sb.WriteString(")")
		}
		sb.WriteString("\n")
	}
	for _, ss := range t.Shards {
		fmt.Fprintf(&sb, "  shard %-6d %10v  (%d/%d candidates", ss.Shard,
			ss.Duration.Round(time.Microsecond), ss.Done, ss.Candidates)
		if ss.Addr != "" {
			fmt.Fprintf(&sb, ", addr %s", ss.Addr)
		}
		if ss.Partial {
			sb.WriteString(", partial")
		}
		if ss.Err != "" {
			fmt.Fprintf(&sb, ", err: %s", ss.Err)
		}
		sb.WriteString(")\n")
	}
	for _, p := range t.Plan {
		fmt.Fprintf(&sb, "  plan %s\n", p)
	}
	return sb.String()
}

// Tracer records a trace's spans contiguously: EndPhase closes the span
// that started when the previous one ended (or at StartTrace for the
// first). A Tracer belongs to one goroutine.
type Tracer struct {
	trace *Trace
	last  time.Time
}

// StartTrace begins a trace at the current time.
func StartTrace() *Tracer {
	now := time.Now()
	return &Tracer{trace: &Trace{Begin: now}, last: now}
}

// EndPhase closes the current phase with the given stats. Zero-duration
// phases are still recorded, so every trace lists the full pipeline.
func (tr *Tracer) EndPhase(phase string, st SpanStats) {
	now := time.Now()
	tr.trace.Spans = append(tr.trace.Spans, Span{
		Phase:    phase,
		Start:    tr.last.Sub(tr.trace.Begin),
		Duration: now.Sub(tr.last),
		Stats:    st,
	})
	tr.last = now
}

// AddPlan appends one plan line to the trace being recorded.
func (tr *Tracer) AddPlan(note string) {
	tr.trace.Plan = append(tr.trace.Plan, note)
}

// AddShard appends one shard's breakdown to the trace being recorded.
func (tr *Tracer) AddShard(s ShardSpan) {
	tr.trace.Shards = append(tr.trace.Shards, s)
}

// Finish seals the trace and returns it. The tracer must not be used
// afterwards.
func (tr *Tracer) Finish() *Trace {
	tr.trace.Total = time.Since(tr.trace.Begin)
	return tr.trace
}
