package obs

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"sync"
	"time"
)

// The wide event: one flat, self-contained record per completed query, and
// the only one. Aggregate metrics answer "how is the fleet doing"; the event
// answers what exactly did THIS query do, and every per-query surface is a
// sink that keeps some of them — the JSONL journal all it is given, the ring
// the most recent, the slow log (slowlog.go) the slowest and the failed.
//
// Events are emitted from the engine's observeQuery seam, so there is
// exactly one event per completed query (ok, error, partial or recovered
// panic), and its durations and counters are read from the same sealed
// trace the /metrics instruments observe.

// MaxQueryText bounds the query text retained in events and in-flight
// records: a megabyte query string must not turn bounded rings into
// unbounded memory.
const MaxQueryText = 2048

// TruncateQuery caps query text at MaxQueryText bytes, marking the cut.
func TruncateQuery(q string) string {
	if len(q) <= MaxQueryText {
		return q
	}
	return q[:MaxQueryText] + "...(truncated)"
}

// EventPhase is one pipeline phase inside an event: the span's duration and
// materializer counters, flattened for JSON consumers.
type EventPhase struct {
	Phase            string `json:"phase"`
	DurationUs       int64  `json:"duration_us"`
	TraversedVectors int64  `json:"traversed_vectors,omitempty"`
	IndexedVectors   int64  `json:"indexed_vectors,omitempty"`
	CacheHits        int64  `json:"cache_hits,omitempty"`
	CacheMisses      int64  `json:"cache_misses,omitempty"`
}

// EventShard is one shard's contribution inside an event: the scatter–
// gather tier's per-shard progress and outcome, flattened for JSON
// consumers (mirrors obs.ShardSpan).
type EventShard struct {
	Shard      int    `json:"shard"`
	Addr       string `json:"addr,omitempty"`
	DurationUs int64  `json:"duration_us"`
	Candidates int    `json:"candidates"`
	Done       int    `json:"done"`
	Partial    bool   `json:"partial,omitempty"`
	Err        string `json:"error,omitempty"`
}

// Event is one wide query event. Every field is flat and machine-readable;
// one event tells a query's whole story without joining other streams.
type Event struct {
	// Time is the query's completion time.
	Time time.Time `json:"time"`
	// RequestID, TraceID, SpanID and ParentSpanID are the correlation
	// identities (see requestid.go and tracectx.go); "" outside serving.
	RequestID    string `json:"request_id,omitempty"`
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Query is the OQL source text, capped at MaxQueryText.
	Query string `json:"query"`
	// Measure, Strategy and Parallelism describe the engine configuration
	// the query ran under.
	Measure     string `json:"measure,omitempty"`
	Strategy    string `json:"strategy,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	// QueueWaitUs is the time the query waited for a ServePool run token
	// (0 outside a pool).
	QueueWaitUs int64 `json:"queue_wait_us,omitempty"`
	// TotalUs is the query's wall time; Phases is the per-phase breakdown
	// with the materializer counters attributed to each phase.
	TotalUs int64        `json:"total_us"`
	Phases  []EventPhase `json:"phases,omitempty"`
	// Shards is the per-shard breakdown of a sharded (scatter–gather)
	// execution; absent for unsharded queries.
	Shards []EventShard `json:"shards,omitempty"`
	// Kernels counts expansion hops by kernel (merge/pull/dense/map) during
	// the query, when the materializer exposes its traverser's counters.
	Kernels map[string]int64 `json:"kernels,omitempty"`
	// Plan names, per feature meta-path that has one, the waist the cache
	// finishes that path's misses from ("(0 1 2 1 0): waist=venue@2") — why
	// such a path is cheap, or "(dropped)" why it no longer is — and where a
	// NetOut scan's numerators came from ("(0 1 2): numer=memo", "…=walk",
	// "…=vertex known=K need=N"), a remote shard's behind its index
	// ("shard 1 (0 1 2): numer=memo").
	Plan []string `json:"plan,omitempty"`
	// Compiled is "hit" when a serve pool held the query text's compiled entry
	// (parse, resolution) and "miss" when it did not; RefSide is "memo" when
	// the reduced reference side came from that entry and "computed" when this
	// query reduced it. Both absent for a query outside a pool.
	Compiled string `json:"compiled,omitempty"`
	RefSide  string `json:"refside,omitempty"`
	// Candidates and References are |Sc| and |Sr|; Entries is the ranked
	// result size.
	Candidates int `json:"candidates,omitempty"`
	References int `json:"references,omitempty"`
	Entries    int `json:"entries,omitempty"`
	// Outcome is the taxonomy outcome label ("ok", "invalid", "deadline",
	// ...); Error is the failure message for non-ok outcomes.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Stack is the stack captured where a defect (a recovered panic) was
	// raised; "" for every other outcome. It is what lets an operator walk
	// from a 500's X-Request-Id to the crashing frame.
	Stack string `json:"stack,omitempty"`
	// Partial marks a deadline-degraded result.
	Partial bool `json:"partial,omitempty"`
	// TopScore is the most outlying entry's score (nil when there are no
	// entries — 0 is a legitimate score).
	TopScore *float64 `json:"top_score,omitempty"`

	// trace is the sealed trace the event was started from (Trace.Event),
	// kept so /debug/slow renders phases with Trace.Format; nil for an event
	// built any other way.
	trace *Trace
}

// Event starts the wide event of the query t traced: completion time,
// identity, total, phases, shards and plan are read from the sealed trace;
// the caller adds what a trace does not know (text, configuration, outcome).
func (t *Trace) Event() *Event {
	ev := &Event{
		Time:         time.Now(),
		RequestID:    t.RequestID,
		TraceID:      t.TraceID,
		SpanID:       t.SpanID,
		ParentSpanID: t.ParentSpanID,
		TotalUs:      t.Total.Microseconds(),
		Plan:         t.Plan,
		Compiled:     t.Compiled,
		RefSide:      t.RefSide,
		trace:        t,
	}
	for _, s := range t.Spans {
		ev.Phases = append(ev.Phases, EventPhase{
			Phase:            s.Phase,
			DurationUs:       s.Duration.Microseconds(),
			TraversedVectors: s.Stats.TraversedVectors,
			IndexedVectors:   s.Stats.IndexedVectors,
			CacheHits:        s.Stats.CacheHits,
			CacheMisses:      s.Stats.CacheMisses,
		})
	}
	for _, ss := range t.Shards {
		ev.Shards = append(ev.Shards, EventShard{
			Shard:      ss.Shard,
			Addr:       ss.Addr,
			DurationUs: ss.Duration.Microseconds(),
			Candidates: ss.Candidates,
			Done:       ss.Done,
			Partial:    ss.Partial,
			Err:        ss.Err,
		})
	}
	return ev
}

// EventSink receives completed query events. Implementations must be safe
// for concurrent use; Emit must not retain ev's slices beyond the call
// unless it copies them (the engine allocates a fresh Event per query, so
// retaining ev itself is fine).
type EventSink interface {
	Emit(ev *Event)
}

// ---------------------------------------------------------------------------
// JSONL writer

// JSONLWriter appends one JSON object per line to an io.Writer — the
// machine-readable journal file behind the -event-log flag. Writes are
// serialized; a write error disables further output (the journal is
// observability, not correctness — it must never fail a query).
type JSONLWriter struct {
	mu     sync.Mutex
	w      io.Writer
	broken bool
}

// NewJSONLWriter creates a JSONL event writer over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w}
}

// Emit writes ev as one JSON line.
func (j *JSONLWriter) Emit(ev *Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken {
		return
	}
	if _, err := j.w.Write(data); err != nil {
		j.broken = true
	}
}

// ---------------------------------------------------------------------------
// Bounded in-memory ring

// EventRing retains the last N events in memory, served as JSON at
// /debug/events. Memory is bounded regardless of traffic volume.
type EventRing struct {
	mu     sync.Mutex
	events []*Event
	next   int
	filled bool
}

// NewEventRing creates a ring retaining the n most recent events (n <= 0
// defaults to 256).
func NewEventRing(n int) *EventRing {
	if n <= 0 {
		n = 256
	}
	return &EventRing{events: make([]*Event, n)}
}

// Emit retains ev, evicting the oldest retained event once full.
func (r *EventRing) Emit(ev *Event) {
	r.mu.Lock()
	r.events[r.next] = ev
	r.next = (r.next + 1) % len(r.events)
	if r.next == 0 {
		r.filled = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events, most recent first.
func (r *EventRing) Snapshot() []*Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.events)
	}
	out := make([]*Event, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recently written slot.
		out = append(out, r.events[(r.next-i+len(r.events))%len(r.events)])
	}
	return out
}

// ---------------------------------------------------------------------------
// Sampling

// SampledSink forwards every error, partial and slow event, plus a
// deterministic fraction of OK events selected by request-ID hash — the
// shape that keeps the journal's error fidelity perfect while bounding its
// volume under heavy healthy traffic. Determinism matters: the same rid
// samples identically on every replica, so a sampled request is sampled
// everywhere it touched.
type SampledSink struct {
	inner EventSink
	// keep is the OK-event sampling fraction in [0, 1].
	keep float64
	// slow is the duration at or above which an OK event is always kept
	// (0 disables the slow escape hatch).
	slow time.Duration
}

// NewSampledSink wraps inner with sampling: errors, partials and events
// with total duration >= slow always pass; other OK events pass for a
// deterministic keep fraction (1.0 keeps everything).
func NewSampledSink(inner EventSink, keep float64, slow time.Duration) *SampledSink {
	if keep < 0 {
		keep = 0
	}
	if keep > 1 {
		keep = 1
	}
	return &SampledSink{inner: inner, keep: keep, slow: slow}
}

// Emit forwards ev when it passes the sampling rule.
func (s *SampledSink) Emit(ev *Event) {
	if s.Keep(ev) {
		s.inner.Emit(ev)
	}
}

// Keep reports whether ev passes the sampling rule.
func (s *SampledSink) Keep(ev *Event) bool {
	if ev.Outcome != "ok" || ev.Partial {
		return true
	}
	if s.slow > 0 && time.Duration(ev.TotalUs)*time.Microsecond >= s.slow {
		return true
	}
	if s.keep >= 1 {
		return true
	}
	if s.keep <= 0 {
		return false
	}
	// FNV-1a of the request ID, mapped to [0, 1): deterministic per rid.
	// Events without a rid (CLI runs) hash their query text instead, so
	// repeated identical queries sample consistently there too.
	h := fnv.New64a()
	if ev.RequestID != "" {
		io.WriteString(h, ev.RequestID)
	} else {
		io.WriteString(h, ev.Query)
	}
	const span = 1 << 53 // float64-exact integer range
	return float64(h.Sum64()%span)/span < s.keep
}

// ---------------------------------------------------------------------------
// Fan-out

// multiSink forwards every event to each sink in order.
type multiSink []EventSink

func (m multiSink) Emit(ev *Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// CombineSinks fans events out to all the given sinks; nil sinks are
// dropped. Returns nil when nothing remains, the sink itself when exactly
// one remains.
func CombineSinks(sinks ...EventSink) EventSink {
	var out multiSink
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// ---------------------------------------------------------------------------
// Queue-wait context plumbing

// qwCtxKey is the private context key for the serve-pool queue wait.
type qwCtxKey struct{}

// WithQueueWait returns a context annotated with the time the query spent
// waiting for a run token. The ServePool sets it so the engine-emitted wide
// event can report the wait; it has no effect on execution.
func WithQueueWait(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, qwCtxKey{}, d)
}

// QueueWaitFrom returns the queue wait annotated on ctx (0 when none).
func QueueWaitFrom(ctx context.Context) time.Duration {
	if ctx == nil {
		return 0
	}
	if d, ok := ctx.Value(qwCtxKey{}).(time.Duration); ok {
		return d
	}
	return 0
}
