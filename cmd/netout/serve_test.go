package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"netout"
	"netout/internal/obs"
)

// serveTestServer spins up the serve-mode handler over a small generated
// graph, exactly as `netout -serve` wires it (shared registry between the
// pool and the admin mux, event ring, in-flight table, readiness).
func serveTestServer(t *testing.T) (*httptest.Server, *netout.ServePool, *netout.EventRing) {
	t.Helper()
	g := smallGraph(t)
	reg := obs.NewRegistry()
	slow := netout.NewSlowLog(4)
	ring := netout.NewEventRing(16)
	inflight := netout.NewInflight()
	eng := netout.NewEngine(g, netout.WithObs(reg),
		netout.WithEventSink(netout.CombineEventSinks(ring, slow)), netout.WithInflight(inflight))
	pool := netout.NewServePool(eng, netout.ServeOptions{
		Workers:        2,
		MaxQueue:       4,
		DefaultTimeout: 30 * time.Second,
	})
	t.Cleanup(pool.Close)
	srv := httptest.NewServer(serveHandler(pool, reg, slow,
		netout.AdminWithReadiness(pool.Ready),
		netout.AdminWithEventRing(ring),
		netout.AdminWithInflight(inflight)))
	t.Cleanup(srv.Close)
	return srv, pool, ring
}

func TestServeHandlerQuery(t *testing.T) {
	srv, _, _ := serveTestServer(t)
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`

	// Same query via ?q= and via POST body must both serve a full ranking.
	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Get(srv.URL + "/query?q=" + url.QueryEscape(q))
		},
		func() (*http.Response, error) {
			return http.Post(srv.URL+"/query", "text/plain", strings.NewReader(q))
		},
	} {
		resp, err := req()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var jr jsonResult
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(jr.Entries) == 0 || len(jr.Entries) > 3 {
			t.Fatalf("entries = %+v, want 1..3 ranked entries", jr.Entries)
		}
		if jr.Partial {
			t.Fatal("unconstrained query reported a partial result")
		}
		if jr.CandidateCount == 0 {
			t.Fatal("CandidateCount missing from response")
		}
	}
}

func TestServeHandlerErrors(t *testing.T) {
	srv, _, _ := serveTestServer(t)
	for name, tc := range map[string]struct {
		path, body string
		want       int
	}{
		"missing query": {"/query", "", http.StatusBadRequest},
		"parse error":   {"/query", "FIND NONSENSE;;", http.StatusBadRequest},
		"bad type":      {"/query", "FIND OUTLIERS FROM nosuchtype JUDGED BY a.b;", http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.path, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var je jsonError
		json.NewDecoder(resp.Body).Decode(&je)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
		if tc.body == "" {
			continue // refused by the handler: no query ever ran
		}
		// A query the engine refused — at the parser as much as at validation
		// — is found at /debug/slow from the 400's request ID, with its error.
		rid := resp.Header.Get("X-Request-Id")
		slow, err := http.Get(srv.URL + "/debug/slow")
		if err != nil {
			t.Fatal(err)
		}
		page, _ := io.ReadAll(slow.Body)
		slow.Body.Close()
		if rid == "" || !strings.Contains(string(page), "rid="+rid) || !strings.Contains(string(page), "error: "+je.Error.Message) {
			t.Fatalf("%s: /debug/slow does not list rid %q with error %q:\n%s", name, rid, je.Error.Message, page)
		}
	}
}

// The -json object and the /query body are one shape from one builder: the
// body is the -json object plus the serving identities.
func TestQueryBodyIsTheJSONResult(t *testing.T) {
	srv, _, _ := serveTestServer(t)
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	var body jsonResult
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.RequestID != resp.Header.Get("X-Request-Id") || body.TraceID == "" {
		t.Fatalf("body identities = %q/%q, want the response's request ID and a trace ID", body.RequestID, body.TraceID)
	}
	res, err := netout.NewEngine(smallGraph(t)).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want := newJSONResult(res, false)
	want.RequestID, want.TraceID, want.TotalMicros = body.RequestID, body.TraceID, body.TotalMicros
	if !reflect.DeepEqual(body, want) {
		t.Fatalf("/query body = %+v\n-json object = %+v", body, want)
	}
}

// The admin endpoints ride on the serve mux, and the pool's series and the
// engine's outcome count are present in the scrape after traffic.
func TestServeHandlerAdminEndpoints(t *testing.T) {
	srv, _, _ := serveTestServer(t)
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`
	resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(body)
	for _, metric := range []string{
		"netout_serve_workers",
		"netout_serve_queue_seconds_count",
		"netout_serve_execute_seconds_count",
		`netout_queries_total{outcome="ok"}`,
	} {
		if !strings.Contains(scrape, metric) {
			t.Fatalf("scrape missing %s:\n%s", metric, scrape)
		}
	}
}
