package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The in-flight request inspector. Metrics and the journal only describe
// COMPLETED queries; a stuck or runaway query is invisible to both exactly
// while an operator needs to see it. The Inflight table registers every
// executing query with a live phase pointer and chunk progress, rendered at
// /debug/requests and counted by the netout_inflight_queries gauge — the
// first tool that can explain a hung query while it runs.

// InflightQuery is one executing query's live record. The registering
// goroutine owns the immutable identity fields; the mutable progress fields
// are atomics updated by the execution pipeline (including its parallel
// chunk workers) and read by the inspector without coordination.
type InflightQuery struct {
	// ID is the table's registration sequence number (stable sort key).
	ID uint64
	// RequestID is the serving correlation ID ("" outside serving).
	RequestID string
	// TraceID is the distributed trace ID ("" when none).
	TraceID string
	// Query is the OQL source text, capped at MaxQueryText.
	Query string
	// Begin is when execution started.
	Begin time.Time

	// phase is the current pipeline phase name (atomically swapped string).
	phase atomic.Value
	// chunksDone and chunksTotal track the current chunked phase's progress
	// under the parallel pipeline (0/0 on the sequential path).
	chunksDone, chunksTotal atomic.Int64
	// workers is the number of pipeline workers executing the query (1 on
	// the sequential path).
	workers atomic.Int64
}

// SetPhase updates the live phase pointer. Nil-safe, like every mutator on
// InflightQuery: callers thread an optional record without guards.
func (q *InflightQuery) SetPhase(phase string) {
	if q == nil {
		return
	}
	q.phase.Store(phase)
}

// Phase returns the current phase name.
func (q *InflightQuery) Phase() string {
	if p, ok := q.phase.Load().(string); ok {
		return p
	}
	return ""
}

// StartChunks begins a chunked phase: progress resets to 0 of total with
// the given worker count.
func (q *InflightQuery) StartChunks(total, workers int) {
	if q == nil {
		return
	}
	q.chunksDone.Store(0)
	q.chunksTotal.Store(int64(total))
	q.workers.Store(int64(workers))
}

// ChunkDone marks one chunk finished; pipeline workers call it as they
// complete chunks.
func (q *InflightQuery) ChunkDone() {
	if q == nil {
		return
	}
	q.chunksDone.Add(1)
}

// Progress returns the current chunk progress and worker count.
func (q *InflightQuery) Progress() (done, total, workers int64) {
	return q.chunksDone.Load(), q.chunksTotal.Load(), q.workers.Load()
}

// InflightSnapshot is one row of the live table, consistent at read time.
type InflightSnapshot struct {
	ID          uint64    `json:"id"`
	RequestID   string    `json:"request_id,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	Query       string    `json:"query"`
	Begin       time.Time `json:"begin"`
	ElapsedUs   int64     `json:"elapsed_us"`
	Phase       string    `json:"phase"`
	ChunksDone  int64     `json:"chunks_done,omitempty"`
	ChunksTotal int64     `json:"chunks_total,omitempty"`
	Workers     int64     `json:"workers,omitempty"`
}

// Inflight is the table of currently executing queries. All methods are
// safe for concurrent use; Register/Deregister are O(1) map operations so
// per-query overhead stays negligible.
type Inflight struct {
	mu  sync.Mutex
	m   map[uint64]*InflightQuery
	seq uint64
	// n mirrors len(m) atomically so the gauge reads without the lock.
	n atomic.Int64
}

// NewInflight creates an empty in-flight table.
func NewInflight() *Inflight {
	return &Inflight{m: make(map[uint64]*InflightQuery)}
}

// Register adds an executing query and returns its live record; the caller
// must Deregister it when execution finishes (success, error or panic).
func (t *Inflight) Register(rid, traceID, query string) *InflightQuery {
	q := &InflightQuery{
		RequestID: rid,
		TraceID:   traceID,
		Query:     TruncateQuery(query),
		Begin:     time.Now(),
	}
	q.phase.Store("start")
	t.mu.Lock()
	t.seq++
	q.ID = t.seq
	t.m[q.ID] = q
	t.mu.Unlock()
	t.n.Add(1)
	return q
}

// Deregister removes a finished query from the table. Safe to call with a
// nil record (no-op), so callers can thread an optional table without
// guards.
func (t *Inflight) Deregister(q *InflightQuery) {
	if t == nil || q == nil {
		return
	}
	t.mu.Lock()
	if _, ok := t.m[q.ID]; ok {
		delete(t.m, q.ID)
		t.n.Add(-1)
	}
	t.mu.Unlock()
}

// Len returns the number of executing queries — the value behind the
// netout_inflight_queries gauge.
func (t *Inflight) Len() int64 { return t.n.Load() }

// Snapshot returns the live table, oldest query first (the query most worth
// looking at in a stuck process is the one that has run longest).
func (t *Inflight) Snapshot() []InflightSnapshot {
	now := time.Now()
	t.mu.Lock()
	rows := make([]InflightSnapshot, 0, len(t.m))
	for _, q := range t.m {
		done, total, workers := q.Progress()
		rows = append(rows, InflightSnapshot{
			ID:          q.ID,
			RequestID:   q.RequestID,
			TraceID:     q.TraceID,
			Query:       q.Query,
			Begin:       q.Begin,
			ElapsedUs:   now.Sub(q.Begin).Microseconds(),
			Phase:       q.Phase(),
			ChunksDone:  done,
			ChunksTotal: total,
			Workers:     workers,
		})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows
}

// RegisterMetrics exposes the table's gauge on reg (idempotent per
// registry/table pair).
func (t *Inflight) RegisterMetrics(reg *Registry) {
	if !reg.Once(fmt.Sprintf("obs:inflight-metrics:%p", t)) {
		return
	}
	reg.GaugeFunc("netout_inflight_queries", "Queries currently executing.",
		func() float64 { return float64(t.Len()) })
}

// Format renders the live table for terminal or /debug/requests display.
func (t *Inflight) Format() string {
	rows := t.Snapshot()
	var sb strings.Builder
	if len(rows) == 0 {
		sb.WriteString("in-flight queries: none\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "in-flight queries: %d (oldest first)\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(&sb, "#%d  elapsed %v  phase %s", r.ID,
			(time.Duration(r.ElapsedUs) * time.Microsecond).Round(time.Millisecond), r.Phase)
		if r.ChunksTotal > 0 {
			fmt.Fprintf(&sb, "  chunks %d/%d on %d workers", r.ChunksDone, r.ChunksTotal, r.Workers)
		}
		if r.RequestID != "" {
			fmt.Fprintf(&sb, "  rid=%s", r.RequestID)
		}
		if r.TraceID != "" {
			fmt.Fprintf(&sb, "  trace=%s", r.TraceID)
		}
		fmt.Fprintf(&sb, "\n    %s\n", r.Query)
	}
	return sb.String()
}
