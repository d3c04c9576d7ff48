package core

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"netout/internal/obs"
)

// scrapeMetrics fetches url and parses its Prometheus text exposition
// (parseExposition).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// metricsOf parses reg's exposition (parseExposition).
func metricsOf(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	return parseExposition(t, sb.String())
}

// parseExposition parses a Prometheus text exposition into series-name →
// value (names keep their label suffix).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestServePoolMetricsMatchStats is the acceptance check for the metrics
// layer: after a ServePool workload, a /metrics scrape must agree exactly
// with CacheStats and the materializer's counters (func-backed readers of the
// same atomics, so any drift is a wiring bug), and the engine's outcome family
// with the test's own tally of what the pool's callers got.
func TestServePoolMetricsMatchStats(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomBibGraph(r)
	queries := randomQueries(r, g)

	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(8)
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewServePool(NewEngine(g, WithMaterializer(mat), WithObs(reg), WithEventSink(slow)), ServeOptions{Workers: 3})
	defer pool.Close()

	// Sequential submission keeps the engines' delta-based vector counters
	// exact (concurrent queries would interleave their before/after Stats
	// snapshots); the func-backed totals are exact either way.
	served := 0
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			if _, err := pool.Execute(nil, q); err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			served++
		}
	}
	// One failure past the parser (unknown author name fails in the plan
	// phase) so the error paths are exercised too.
	if _, err := pool.Execute(nil, `FIND OUTLIERS FROM author{"No Such Author"} JUDGED BY author.paper.venue;`); err == nil {
		t.Fatal("bad query should fail")
	}

	cs, ok := CacheStatsOf(mat)
	if !ok {
		t.Fatal("CacheStatsOf failed")
	}
	ms := mat.Stats()

	srv := httptest.NewServer(obs.NewAdminMux(reg, slow))
	defer srv.Close()
	m := scrapeMetrics(t, srv.URL+"/metrics")

	exact := map[string]float64{
		// The pool times every query it admitted.
		"netout_serve_workers":             3,
		"netout_serve_queue_seconds_count": float64(served + 1),

		// Shared cache: scrape == CacheStatsOf, exactly.
		"netout_cache_hits_total":      float64(cs.Hits),
		"netout_cache_misses_total":    float64(cs.Misses),
		"netout_cache_deduped_total":   float64(cs.Deduped),
		"netout_cache_evictions_total": float64(cs.Evictions),
		"netout_cache_bytes":           float64(cs.Bytes),
		"netout_index_bytes":           float64(mat.IndexBytes()),

		// The engine's outcome family == the test's own tally: every answer
		// served, and the unknown author's NOT_FOUND.
		`netout_queries_total{outcome="ok"}`:        float64(served),
		`netout_queries_total{outcome="not_found"}`: 1,
		"netout_query_seconds_count":                float64(served + 1),

		// Sequential submission makes the per-query vector deltas sum to the
		// materializer's own totals.
		"netout_vectors_traversed_total": float64(ms.TraversedVectors),
		"netout_vectors_indexed_total":   float64(ms.IndexedVectors),
	}
	for name, want := range exact {
		got, ok := m[name]
		if !ok {
			t.Errorf("scrape is missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, v := range m {
		if _, ok := exact[name]; !ok && strings.HasPrefix(name, "netout_queries_total{") {
			t.Errorf("%s = %v: an outcome the pool's callers never got", name, v)
		}
	}
	if cs.Hits == 0 {
		t.Fatalf("repeated workload produced no cache hits: %+v", cs)
	}
	// The failed query dies in plan, before materialize: every served query
	// (and only those) records a materialize span.
	if got := m[`netout_query_phase_seconds_count{phase="materialize"}`]; got != float64(served) {
		t.Errorf("materialize phase count = %v, want %v", got, served)
	}

	// The other admin surfaces.
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("/healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	slowBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(slowBody), "FIND OUTLIERS") {
		t.Fatalf("/debug/slow does not echo retained queries:\n%s", slowBody)
	}
}

// TestResultTracePhases checks the acceptance criterion on traces: every
// Result carries a contiguous phase breakdown whose durations sum to the
// trace total (within 5%), with the materializer work attributed to the
// materialize span.
func TestResultTracePhases(t *testing.T) {
	g := fig1Graph(t)
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(4)
	eng := NewEngine(g, WithObs(reg), WithEventSink(slow))

	res, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace is nil")
	}
	wantPhases := []string{"parse", "validate", "plan", "materialize", "score", "rank"}
	if len(res.Trace.Spans) != len(wantPhases) {
		t.Fatalf("trace has %d spans, want %d: %+v", len(res.Trace.Spans), len(wantPhases), res.Trace.Spans)
	}
	for i, want := range wantPhases {
		if res.Trace.Spans[i].Phase != want {
			t.Fatalf("span %d = %q, want %q", i, res.Trace.Spans[i].Phase, want)
		}
	}
	// Spans are contiguous by construction: each starts where the previous
	// one ended, the first at the trace's beginning, and none outlasts it.
	var next time.Duration
	for i, sp := range res.Trace.Spans {
		if sp.Start != next {
			t.Fatalf("span %d (%s) starts at %v, the previous one ended at %v", i, sp.Phase, sp.Start, next)
		}
		next = sp.Start + sp.Duration
	}
	if total := res.Trace.Total; next > total {
		t.Fatalf("last span ends at %v, total %v", next, total)
	}
	matSpan, ok := res.Trace.Span("materialize")
	if !ok {
		t.Fatal("no materialize span")
	}
	if matSpan.Stats.TraversedVectors != res.Timing.TraversedVectors ||
		matSpan.Stats.IndexedVectors != res.Timing.IndexedVectors {
		t.Fatalf("materialize span stats %+v disagree with Timing %+v", matSpan.Stats, res.Timing)
	}

	if _, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`); err != nil {
		t.Fatal(err)
	}

	// The slow log retained the successful queries.
	if got := slow.Snapshot(); len(got) != 2 || !strings.Contains(got[0].Query, "FIND OUTLIERS") {
		t.Fatalf("slow log = %+v, want both queries retained", got)
	}

	// Explanations carry their own trace, printed by Format.
	x, err := eng.Explain(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`, "Zoe", 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.Trace == nil {
		t.Fatal("Explanation.Trace is nil")
	}
	if !strings.Contains(x.Format(), "trace: total") {
		t.Fatalf("Explanation.Format does not include the trace:\n%s", x.Format())
	}
}
