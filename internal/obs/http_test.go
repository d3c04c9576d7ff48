package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminMuxReadiness(t *testing.T) {
	// No readiness check: always ready.
	bare := httptest.NewServer(NewAdminMux(NewRegistry(), nil))
	defer bare.Close()
	if code, body := getBody(t, bare.URL+"/readyz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz without a check = %d %q, want 200 ok", code, body)
	}

	// With a check: flips to 503 when the check starts failing — while
	// /healthz (liveness) keeps answering 200 throughout the drain.
	var down error
	srv := httptest.NewServer(NewAdminMux(NewRegistry(), nil,
		WithReadiness(func() error { return down })))
	defer srv.Close()
	if code, _ := getBody(t, srv.URL+"/readyz"); code != 200 {
		t.Fatalf("/readyz while ready = %d, want 200", code)
	}
	down = errors.New("pool closed")
	code, body := getBody(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "pool closed") {
		t.Fatalf("/readyz while draining = %d %q, want 503 with the cause", code, body)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz while draining = %d, want 200 (alive, not ready)", code)
	}
}

func TestAdminMuxEventsAndRequests(t *testing.T) {
	// Unconfigured surfaces answer 200 with a clear note, not 404.
	bare := httptest.NewServer(NewAdminMux(NewRegistry(), nil))
	defer bare.Close()
	if code, body := getBody(t, bare.URL+"/debug/events"); code != 200 || !strings.Contains(body, "not configured") {
		t.Fatalf("unconfigured /debug/events = %d %q", code, body)
	}
	if code, body := getBody(t, bare.URL+"/debug/requests"); code != 200 || !strings.Contains(body, "not configured") {
		t.Fatalf("unconfigured /debug/requests = %d %q", code, body)
	}

	ring := NewEventRing(4)
	ring.Emit(&Event{RequestID: "rid-7", Query: "FIND OUTLIERS;", Outcome: "ok"})
	tab := NewInflight()
	q := tab.Register("rid-8", "trace-8", "FIND OTHERS;")
	q.SetPhase("materialize")
	q.Begin = time.Now().Add(-3 * time.Second)
	defer tab.Deregister(q)
	srv := httptest.NewServer(NewAdminMux(NewRegistry(), nil,
		WithEventRing(ring), WithInflight(tab)))
	defer srv.Close()

	_, body := getBody(t, srv.URL+"/debug/events")
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/debug/events is not JSON: %v\n%s", err, body)
	}
	if len(events) != 1 || events[0].RequestID != "rid-7" {
		t.Fatalf("/debug/events = %+v, want the emitted event", events)
	}

	_, body = getBody(t, srv.URL+"/debug/requests")
	if !strings.Contains(body, "rid=rid-8") || !strings.Contains(body, "phase materialize") {
		t.Fatalf("/debug/requests text missing live row:\n%s", body)
	}
	_, body = getBody(t, srv.URL+"/debug/requests?format=json")
	var rows []InflightSnapshot
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/debug/requests?format=json is not JSON: %v\n%s", err, body)
	}
	if len(rows) != 1 || rows[0].RequestID != "rid-8" || rows[0].Phase != "materialize" {
		t.Fatalf("JSON rows = %+v", rows)
	}
	// elapsed_us is microseconds: a query begun 3 s ago reads about 3e6, not
	// the 3e9 of a time.Duration marshalled as it stands.
	var raw []map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	if us, _ := raw[0]["elapsed_us"].(float64); us < 3e6 || us > 60e6 {
		t.Fatalf("elapsed_us = %v for a query begun 3 s ago, want microseconds", raw[0]["elapsed_us"])
	}
}

func TestMemStatsCacheTTL(t *testing.T) {
	reads := 0
	c := &cachedMemStats{ttl: time.Hour, read: func(ms *runtime.MemStats) {
		reads++
		ms.HeapInuse = uint64(1000 + reads)
	}}
	first := c.heapInuse()
	for i := 0; i < 10; i++ {
		if got := c.heapInuse(); got != first {
			t.Fatalf("cached read changed: %v vs %v", got, first)
		}
	}
	if reads != 1 {
		t.Fatalf("ReadMemStats ran %d times inside the TTL, want 1", reads)
	}
	// Expire the cache: the next scrape re-reads.
	c.mu.Lock()
	c.at = time.Now().Add(-2 * time.Hour)
	c.mu.Unlock()
	if got := c.heapInuse(); got != 1002 {
		t.Fatalf("post-TTL read = %v, want the fresh value 1002", got)
	}
	if reads != 2 {
		t.Fatalf("ReadMemStats ran %d times, want 2", reads)
	}
}
