package obs

import (
	"context"
	"strings"
	"testing"
)

const (
	wantTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	wantSpanID  = "00f067aa0ba902b7"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	h := "00-" + wantTraceID + "-" + wantSpanID + "-01"
	sc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", h)
	}
	if sc.TraceID != wantTraceID || sc.SpanID != wantSpanID || sc.Flags != 1 {
		t.Fatalf("parsed %+v, want trace %s span %s flags 1", sc, wantTraceID, wantSpanID)
	}
	if got := sc.Traceparent(); got != h {
		t.Fatalf("Traceparent() = %q, want the parsed input %q", got, h)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-" + wantTraceID + "-" + wantSpanID + "-01"
	bad := map[string]string{
		"empty":         "",
		"truncated":     valid[:54],
		"overlong":      valid + "0",
		"uppercase hex": strings.ToUpper(valid),
		"version ff":    "ff" + valid[2:],
		"non-hex vers":  "zz" + valid[2:],
		"zero trace id": "00-" + strings.Repeat("0", 32) + "-" + wantSpanID + "-01",
		"zero span id":  "00-" + wantTraceID + "-" + strings.Repeat("0", 16) + "-01",
		"wrong dash 1":  valid[:2] + "_" + valid[3:],
		"wrong dash 2":  valid[:35] + "_" + valid[36:],
		"wrong dash 3":  valid[:52] + "_" + valid[53:],
		"non-hex trace": "00-" + strings.Repeat("g", 32) + "-" + wantSpanID + "-01",
		"non-hex span":  "00-" + wantTraceID + "-" + strings.Repeat("g", 16) + "-01",
		"non-hex flags": valid[:53] + "zz",
		"spaces":        strings.ReplaceAll(valid, "-", " "),
	}
	for name, h := range bad {
		if sc, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, got %+v", name, h, sc)
		}
	}
}

func TestSpanContextChild(t *testing.T) {
	sc, ok := ParseTraceparent("00-" + wantTraceID + "-" + wantSpanID + "-01")
	if !ok {
		t.Fatal("setup parse failed")
	}
	child := sc.Child()
	if child.TraceID != sc.TraceID {
		t.Fatalf("child trace %s, want parent's %s", child.TraceID, sc.TraceID)
	}
	if child.ParentSpanID != sc.SpanID {
		t.Fatalf("child parent-span %s, want %s", child.ParentSpanID, sc.SpanID)
	}
	if child.SpanID == sc.SpanID || child.SpanID == "" {
		t.Fatalf("child span %q must be fresh", child.SpanID)
	}
	if child.Flags != sc.Flags {
		t.Fatalf("child flags %d, want propagated %d", child.Flags, sc.Flags)
	}
	// The child's header must itself parse.
	if _, ok := ParseTraceparent(child.Traceparent()); !ok {
		t.Fatalf("child header %q does not parse", child.Traceparent())
	}
}

func TestNewIDsAreValid(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if len(tid) != 32 || !isLowerHex(tid) || isAllZero(tid) {
			t.Fatalf("NewTraceID() = %q, want 32 lowercase hex chars, non-zero", tid)
		}
		if len(sid) != 16 || !isLowerHex(sid) || isAllZero(sid) {
			t.Fatalf("NewSpanID() = %q, want 16 lowercase hex chars, non-zero", sid)
		}
		if seen[tid] || seen[sid] {
			t.Fatalf("duplicate generated ID after %d draws", i)
		}
		seen[tid], seen[sid] = true, true
		// A minted context must format to a parseable header.
		sc := SpanContext{TraceID: tid, SpanID: sid}
		if _, ok := ParseTraceparent(sc.Traceparent()); !ok {
			t.Fatalf("minted header %q does not parse", sc.Traceparent())
		}
	}
}

func TestSpanContextOnContext(t *testing.T) {
	if _, ok := SpanContextFrom(context.Background()); ok {
		t.Fatal("empty context reports a span context")
	}
	if _, ok := SpanContextFrom(nil); ok {
		t.Fatal("nil context reports a span context")
	}
	sc := SpanContext{TraceID: wantTraceID, SpanID: wantSpanID}
	ctx := WithSpanContext(context.Background(), sc)
	got, ok := SpanContextFrom(ctx)
	if !ok || got != sc {
		t.Fatalf("round-trip = %+v (ok=%v), want %+v", got, ok, sc)
	}
	// An identity-less context is not attached.
	if ctx2 := WithSpanContext(context.Background(), SpanContext{}); ctx2 != context.Background() {
		t.Fatal("empty span context should leave ctx unchanged")
	}
}
