package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func okEvent(rid string, totalUs int64) *Event {
	return &Event{RequestID: rid, Query: "FIND OUTLIERS;", Outcome: "ok", TotalUs: totalUs}
}

func TestTruncateQuery(t *testing.T) {
	short := "FIND OUTLIERS;"
	if got := TruncateQuery(short); got != short {
		t.Fatalf("short query mangled: %q", got)
	}
	long := strings.Repeat("x", MaxQueryText+100)
	got := TruncateQuery(long)
	if len(got) >= len(long) || !strings.HasSuffix(got, "...(truncated)") {
		t.Fatalf("long query not capped: len=%d suffix=%q", len(got), got[len(got)-20:])
	}
	if !strings.HasPrefix(got, long[:MaxQueryText]) {
		t.Fatal("truncation dropped prefix bytes")
	}
}

func TestEventRingOrderAndWrap(t *testing.T) {
	r := NewEventRing(4)
	if len(r.events) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.events))
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d events", len(got))
	}
	for i := 0; i < 3; i++ {
		r.Emit(okEvent(fmt.Sprintf("r%d", i), int64(i)))
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot = %d events, want 3", len(got))
	}
	// Most recent first.
	for i, want := range []string{"r2", "r1", "r0"} {
		if got[i].RequestID != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, got[i].RequestID, want)
		}
	}
	// Overfill: the oldest two are evicted.
	for i := 3; i < 6; i++ {
		r.Emit(okEvent(fmt.Sprintf("r%d", i), int64(i)))
	}
	got = r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("wrapped snapshot = %d events, want 4", len(got))
	}
	for i, want := range []string{"r5", "r4", "r3", "r2"} {
		if got[i].RequestID != want {
			t.Fatalf("wrapped snapshot[%d] = %s, want %s", i, got[i].RequestID, want)
		}
	}
	// Default capacity.
	if len(NewEventRing(0).events) != 256 {
		t.Fatal("default ring capacity is not 256")
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	top := 4.25
	w.Emit(&Event{
		RequestID: "rid-1", TraceID: "abc", Query: "FIND OUTLIERS;",
		Outcome: "ok", TotalUs: 123, TopScore: &top,
		Phases:  []EventPhase{{Phase: "parse", DurationUs: 7}},
		Kernels: map[string]int64{"merge": 3},
	})
	w.Emit(&Event{Query: "BAD;", Outcome: "invalid", Error: "parse error"})

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", len(lines), err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	if lines[0]["request_id"] != "rid-1" || lines[0]["top_score"] != 4.25 {
		t.Fatalf("first line misencoded: %v", lines[0])
	}
	if lines[1]["outcome"] != "invalid" || lines[1]["error"] != "parse error" {
		t.Fatalf("second line misencoded: %v", lines[1])
	}
	if _, present := lines[1]["top_score"]; present {
		t.Fatal("nil TopScore must be omitted, not emitted as null")
	}
}

// failWriter fails every write after the first.
type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestJSONLWriterDisablesAfterWriteError(t *testing.T) {
	fw := &failWriter{}
	w := NewJSONLWriter(fw)
	for i := 0; i < 5; i++ {
		w.Emit(okEvent("r", 1))
	}
	// One success, one failure, then the writer must stop touching the sink.
	if fw.writes != 2 {
		t.Fatalf("underlying writer saw %d writes, want 2 (1 ok + 1 failed)", fw.writes)
	}
}

func TestSampledSinkAlwaysKeepsErrorsPartialsSlow(t *testing.T) {
	s := NewSampledSink(NewEventRing(8), 0, 50*time.Millisecond) // keep nothing but the escapes
	always := []*Event{
		{Outcome: "invalid", Query: "BAD;"},
		{Outcome: "internal", Query: "FIND OUTLIERS;"},
		{Outcome: "deadline", Partial: true, Query: "FIND OUTLIERS;"},
		{Outcome: "ok", Partial: true, Query: "FIND OUTLIERS;"},
		{Outcome: "ok", TotalUs: 60_000, Query: "FIND OUTLIERS;"}, // >= slow
	}
	for i, ev := range always {
		if !s.Keep(ev) {
			t.Errorf("event %d (%s partial=%v total=%dus) sampled away", i, ev.Outcome, ev.Partial, ev.TotalUs)
		}
	}
	if s.Keep(okEvent("rid", 1_000)) {
		t.Fatal("fast ok event kept at keep=0")
	}
}

func TestSampledSinkDeterministicFraction(t *testing.T) {
	s := NewSampledSink(NewEventRing(8), 0.5, 0)
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		ev := okEvent(fmt.Sprintf("rid-%d", i), 1)
		first := s.Keep(ev)
		if first != s.Keep(ev) {
			t.Fatalf("rid-%d sampled inconsistently", i)
		}
		if first {
			kept++
		}
	}
	// FNV over distinct rids is close to uniform; 2000 draws at p=0.5 stay
	// within ±10 points with overwhelming probability.
	if kept < n*4/10 || kept > n*6/10 {
		t.Fatalf("kept %d of %d at keep=0.5, far from half", kept, n)
	}
	// keep=1 keeps everything, keep clamps outside [0,1].
	if !NewSampledSink(nil, 1, 0).Keep(okEvent("x", 1)) {
		t.Fatal("keep=1 dropped an event")
	}
	if !NewSampledSink(nil, 7, 0).Keep(okEvent("x", 1)) {
		t.Fatal("keep>1 must clamp to keep-everything")
	}
	if NewSampledSink(nil, -1, 0).Keep(okEvent("x", 1)) {
		t.Fatal("keep<0 must clamp to keep-nothing")
	}
	// Without a rid the query text seeds the hash — still deterministic.
	cli := &Event{Query: "FIND OUTLIERS FROM author;", Outcome: "ok"}
	if s.Keep(cli) != s.Keep(cli) {
		t.Fatal("rid-less event sampled inconsistently")
	}
}

func TestSampledSinkEmitForwards(t *testing.T) {
	ring := NewEventRing(8)
	s := NewSampledSink(ring, 0, 0)
	s.Emit(okEvent("r", 1))
	if len(ring.Snapshot()) != 0 {
		t.Fatal("sampled-away event reached the inner sink")
	}
	s.Emit(&Event{Outcome: "internal"})
	if len(ring.Snapshot()) != 1 {
		t.Fatal("error event did not reach the inner sink")
	}
}

func TestCombineSinks(t *testing.T) {
	if CombineSinks() != nil || CombineSinks(nil, nil) != nil {
		t.Fatal("empty combination must be nil")
	}
	ring := NewEventRing(4)
	if got := CombineSinks(nil, ring, nil); got != EventSink(ring) {
		t.Fatalf("single-sink combination = %T, want the sink itself", got)
	}
	r1, r2 := NewEventRing(4), NewEventRing(4)
	multi := CombineSinks(r1, nil, r2)
	multi.Emit(okEvent("r", 1))
	if len(r1.Snapshot()) != 1 || len(r2.Snapshot()) != 1 {
		t.Fatal("fan-out did not reach every sink")
	}
}

func TestQueueWaitContext(t *testing.T) {
	if QueueWaitFrom(context.Background()) != 0 || QueueWaitFrom(nil) != 0 {
		t.Fatal("unannotated context reports a queue wait")
	}
	ctx := WithQueueWait(context.Background(), 3*time.Millisecond)
	if got := QueueWaitFrom(ctx); got != 3*time.Millisecond {
		t.Fatalf("QueueWaitFrom = %v, want 3ms", got)
	}
	if WithQueueWait(context.Background(), 0) != context.Background() {
		t.Fatal("zero wait should leave ctx unchanged")
	}
}
