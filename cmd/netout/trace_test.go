package main

// Wire-level trace propagation and observability-surface tests for serve
// mode: traceparent accept/mint/echo on /query, the event journal and
// in-flight inspector endpoints, readiness, and the request-latency
// histogram.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"netout"
	"netout/internal/obs"
)

const traceQuery = `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`

func TestServeHandlerTraceparentRoundTrip(t *testing.T) {
	fake := &fakeExecutor{res: &netout.Result{}}
	reg := obs.NewRegistry()
	srv := httptest.NewServer(serveHandler(fake, reg, nil))
	defer srv.Close()

	// An incoming traceparent is adopted: same trace, the server becomes a
	// child span of the caller's span, and the server's span is echoed back.
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	req, _ := http.NewRequest("GET", srv.URL+"/query?q="+url.QueryEscape(traceQuery), nil)
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	echo := resp.Header.Get("traceparent")
	sc, ok := netout.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if sc.TraceID != callerTrace {
		t.Fatalf("echoed trace %s, want the caller's %s", sc.TraceID, callerTrace)
	}
	if sc.SpanID == callerSpan {
		t.Fatal("server reused the caller's span ID instead of minting its own")
	}
	var jr jsonResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.TraceID != callerTrace {
		t.Fatalf("body trace_id = %q, want %q", jr.TraceID, callerTrace)
	}
	// The executor's context carried the server's span (parented on the
	// caller's), so the engine's trace and event join the distributed trace.
	got, ok := obs.SpanContextFrom(fake.lastCtx)
	if !ok || got.TraceID != callerTrace || got.ParentSpanID != callerSpan || got.SpanID != sc.SpanID {
		t.Fatalf("execution span context = %+v (ok=%v), want trace %s parent %s span %s",
			got, ok, callerTrace, callerSpan, sc.SpanID)
	}

	// No (or invalid) incoming header: a fresh trace is minted and echoed.
	for _, bad := range []string{"", "not-a-traceparent", "00-" + strings.Repeat("0", 32) + "-" + callerSpan + "-01"} {
		req, _ := http.NewRequest("GET", srv.URL+"/query?q="+url.QueryEscape(traceQuery), nil)
		if bad != "" {
			req.Header.Set("traceparent", bad)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		minted, ok := netout.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("minted traceparent %q does not parse (incoming %q)", resp.Header.Get("traceparent"), bad)
		}
		if minted.TraceID == callerTrace {
			t.Fatal("invalid incoming header was adopted instead of restarted")
		}
		var jr jsonResult
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jr.TraceID != minted.TraceID {
			t.Fatalf("body trace_id %q != echoed header trace %q", jr.TraceID, minted.TraceID)
		}
	}

	// Error responses carry the header too (it is set before any write).
	resp, err = http.Post(srv.URL+"/query", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := netout.ParseTraceparent(resp.Header.Get("traceparent")); !ok {
		t.Fatalf("400 response has no valid traceparent (%q)", resp.Header.Get("traceparent"))
	}
}

// TestServeTraceReachesJournal is the end-to-end correlation check over a
// real pool: the trace ID a client sees in the response header is the trace
// ID on the query's wide event at /debug/events.
func TestServeTraceReachesJournal(t *testing.T) {
	srv, _, ring := serveTestServer(t)
	req, _ := http.NewRequest("POST", srv.URL+"/query", strings.NewReader(traceQuery))
	req.Header.Set("X-Request-Id", "rid-journal")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	sc, ok := netout.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatal("no traceparent on the response")
	}

	evs := ring.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("journal has %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TraceID != sc.TraceID || ev.SpanID != sc.SpanID {
		t.Fatalf("event trace %s/%s, want the response header's %s/%s",
			ev.TraceID, ev.SpanID, sc.TraceID, sc.SpanID)
	}
	if ev.RequestID != "rid-journal" || ev.Outcome != "ok" {
		t.Fatalf("event = rid %q outcome %q", ev.RequestID, ev.Outcome)
	}

	// The same journal is served at /debug/events.
	resp, err = http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var served []obs.Event
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/events is not JSON: %v\n%s", err, body)
	}
	if len(served) != 1 || served[0].TraceID != sc.TraceID {
		t.Fatalf("/debug/events = %+v, want the journaled event", served)
	}
}

// TestServeObservabilitySurfaces covers the remaining admin surfaces in
// serve mode: /readyz flips on Close, /debug/requests answers, and the
// request-latency histogram records by status code.
func TestServeObservabilitySurfaces(t *testing.T) {
	g := smallGraph(t)
	reg := obs.NewRegistry()
	inflight := netout.NewInflight()
	pool := netout.NewServePool(netout.NewEngine(g, netout.WithObs(reg), netout.WithInflight(inflight)),
		netout.ServeOptions{Workers: 2})
	srv := httptest.NewServer(serveHandler(pool, reg, nil,
		netout.AdminWithReadiness(pool.Ready),
		netout.AdminWithInflight(inflight)))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 while serving", code)
	}
	if code, body := get("/debug/requests"); code != http.StatusOK || !strings.Contains(body, "in-flight") {
		t.Fatalf("/debug/requests = %d %q", code, body)
	}

	// One ok query and one 400: the latency histogram records per code.
	if code, _ := get("/query?q=" + url.QueryEscape(traceQuery)); code != http.StatusOK {
		t.Fatalf("query = %d, want 200", code)
	}
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader("NOT OQL;"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := counterValue(t, reg, `netout_http_request_seconds_count{code="200"}`); got != 1 {
		t.Fatalf("request histogram code=200 count = %v, want 1", got)
	}
	if got := counterValue(t, reg, `netout_http_request_seconds_count{code="400"}`); got != 1 {
		t.Fatalf("request histogram code=400 count = %v, want 1", got)
	}

	// Draining: /healthz stays 200 (alive) while /readyz flips to 503.
	pool.Close()
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after Close = %d, want 200", code)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz after Close = %d %q, want 503", code, body)
	}
}
