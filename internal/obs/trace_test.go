package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerContiguousSpans(t *testing.T) {
	tr := StartTrace()
	tr.EndPhase("parse", SpanStats{})
	time.Sleep(2 * time.Millisecond)
	tr.EndPhase("materialize", SpanStats{TraversedVectors: 3, CacheHits: 1})
	tr.EndPhase("rank", SpanStats{})
	trace := tr.Finish()

	if len(trace.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(trace.Spans))
	}
	// Spans tile the wall clock: each starts where the previous ended.
	for i := 1; i < len(trace.Spans); i++ {
		prev, cur := trace.Spans[i-1], trace.Spans[i]
		if cur.Start != prev.Start+prev.Duration {
			t.Fatalf("span %d starts at %v, previous ended at %v", i, cur.Start, prev.Start+prev.Duration)
		}
	}
	// So the phase sum tracks the total up to the Finish bookkeeping tail.
	last := trace.Spans[len(trace.Spans)-1]
	if sum := last.Start + last.Duration; sum > trace.Total || trace.Total-sum > trace.Total/20 {
		t.Fatalf("phase sum %v vs total %v: off by more than 5%%", sum, trace.Total)
	}
	if sp, ok := trace.Span("materialize"); !ok || sp.Stats.TraversedVectors != 3 {
		t.Fatalf("materialize span lookup = %+v, %v", sp, ok)
	}
	if _, ok := trace.Span("nope"); ok {
		t.Fatal("unknown phase should not be found")
	}
	out := trace.Format()
	for _, want := range []string{"trace: total", "parse", "materialize", "3 traversed", "cache 1 hit", "rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	// A query outside a serve pool says nothing about compiled entries; one
	// inside says both things on the header line, and its event carries them.
	if strings.Contains(out, "compiled=") {
		t.Errorf("Format names a compiled entry outside a pool:\n%s", out)
	}
	trace.Compiled, trace.RefSide = "hit", "memo"
	if head, _, _ := strings.Cut(trace.Format(), "\n"); !strings.HasSuffix(head, "  compiled=hit refside=memo") {
		t.Errorf("Format header = %q", head)
	}
	if ev := trace.Event(); ev.Compiled != "hit" || ev.RefSide != "memo" {
		t.Errorf("event compiled=%q refside=%q", ev.Compiled, ev.RefSide)
	}
}

func TestTraceShardRendering(t *testing.T) {
	tr := StartTrace()
	tr.EndPhase("reduce", SpanStats{})
	tr.EndPhase("scatter", SpanStats{TraversedVectors: 8})
	tr.AddShard(ShardSpan{Shard: 0, Duration: 3 * time.Millisecond, Candidates: 5, Done: 5})
	tr.AddShard(ShardSpan{Shard: 1, Duration: time.Millisecond, Candidates: 5, Done: 2, Partial: true, Err: "context deadline exceeded"})
	tr.EndPhase("merge", SpanStats{})
	trace := tr.Finish()

	if len(trace.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(trace.Shards))
	}
	out := trace.Format()
	for _, want := range []string{
		"shard 0", "5/5 candidates",
		"shard 1", "2/5 candidates", "partial", "err: context deadline exceeded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	// Healthy shard lines carry neither fault marker.
	line0 := strings.SplitAfter(out, "\n")[3] // total + 3 phases precede
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "5/5 candidates") {
			line0 = l
		}
	}
	if strings.Contains(line0, "partial") || strings.Contains(line0, "err:") {
		t.Errorf("healthy shard line carries fault markers: %q", line0)
	}
}

func TestSlowLogRetainsSlowest(t *testing.T) {
	sl := NewSlowLog(3)
	if sl.cap != 3 {
		t.Fatalf("cap = %d", sl.cap)
	}
	for i := 1; i <= 6; i++ {
		sl.Emit(&Event{Query: fmt.Sprintf("q%d", i), TotalUs: int64(i) * 1000})
	}
	got := sl.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	// The three slowest (6, 5, 4 ms) survive, slowest first.
	for i, wantQ := range []string{"q6", "q5", "q4"} {
		if got[i].Query != wantQ {
			t.Fatalf("entry %d = %q, want %q (%+v)", i, got[i].Query, wantQ, got)
		}
	}
	// A faster query than everything retained is dropped.
	sl.Emit(&Event{Query: "fast", TotalUs: 1})
	if got := sl.Snapshot(); len(got) != 3 || got[2].Query != "q4" {
		t.Fatalf("fast query displaced a slow one: %+v", got)
	}
	if out := sl.Format(); !strings.Contains(out, "q6") || !strings.Contains(out, "capacity 3") {
		t.Fatalf("Format output:\n%s", out)
	}
	if out := NewSlowLog(1).Format(); !strings.Contains(out, "empty") {
		t.Fatalf("empty Format output: %q", out)
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	sl := NewSlowLog(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sl.Emit(&Event{Query: "q", TotalUs: int64(w*200 + i)})
			}
		}(w)
	}
	wg.Wait()
	got := sl.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d entries, want 8", len(got))
	}
	// The overall slowest observation must have been retained.
	if got[0].TotalUs != 7*200+199 {
		t.Fatalf("slowest retained = %dus", got[0].TotalUs)
	}
}

// The slow log is an EventSink: an event with error text goes to the failure
// ring (kept by recency, oldest evicted), and /debug/slow renders what was
// retained — request ID, error, the phases of the trace the event was started
// from, and a defect's stack.
func TestSlowLogRetainsFailureEvents(t *testing.T) {
	var sink EventSink = NewSlowLog(2)
	sl := sink.(*SlowLog)
	tr := StartTrace()
	tr.EndPhase("parse", SpanStats{})
	tr.EndPhase("materialize", SpanStats{TraversedVectors: 3})
	for i := 1; i <= 3; i++ {
		ev := tr.Finish().Event()
		ev.Query, ev.RequestID = fmt.Sprintf("q%d", i), fmt.Sprintf("rid-%d", i)
		ev.Outcome, ev.Error, ev.Stack = "internal", fmt.Sprintf("boom %d", i), "goroutine 1 [running]:\nmain.crash()\n"
		sink.Emit(ev)
	}
	got := sl.Failures()
	if len(got) != 2 || got[0].Query != "q3" || got[1].Query != "q2" || len(sl.Snapshot()) != 0 {
		t.Fatalf("failure ring = %+v, want q3 then q2 and no slow entries", got)
	}
	page := sl.Format()
	for _, want := range []string{"rid=rid-3", "error: boom 3", "materialize", "3 traversed", "main.crash()", "rid=rid-2"} {
		if !strings.Contains(page, want) {
			t.Fatalf("Format misses %q:\n%s", want, page)
		}
	}
	if strings.Contains(page, "rid-1") {
		t.Fatalf("the evicted failure is still rendered:\n%s", page)
	}
}
