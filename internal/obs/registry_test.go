package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterAndGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	// Get-or-create returns the same instrument.
	if reg.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	// The registry only makes latency histograms; give the registered series
	// three round bounds to count against.
	reg.Histogram("test_seconds", "latency")
	h := newHistogram([]float64{1, 2, 5})
	reg.metrics["test_seconds"].h = h
	// Bucket semantics are cumulative "le": a value equal to an upper bound
	// belongs to that bucket, not the next.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 7.0} {
		h.Observe(v)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`test_seconds_bucket{le="1"} 2`,    // 0.5, 1.0
		`test_seconds_bucket{le="2"} 4`,    // + 1.5, 2.0
		`test_seconds_bucket{le="5"} 5`,    // + 5.0
		`test_seconds_bucket{le="+Inf"} 6`, // + 7.0
		`test_seconds_count 6`,
		`test_seconds_sum 17`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 6 || h.Sum() != 17 {
		t.Fatalf("count/sum = %d/%g", h.Count(), h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 8000*1.5 {
		t.Fatalf("count/sum = %d/%g", h.Count(), h.Sum())
	}
}

func TestExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`test_queries_total{outcome="ok"}`, "queries by outcome").Add(3)
	reg.Counter(`test_queries_total{outcome="error"}`, "queries by outcome").Inc()
	var resident atomic.Int64
	resident.Store(1024)
	reg.GaugeFunc("test_bytes", "resident bytes", func() float64 { return float64(resident.Load()) })
	reg.CounterFunc("test_served_total", "served", func() float64 { return 42 })
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE test_queries_total counter\n",
		`test_queries_total{outcome="error"} 1` + "\n",
		`test_queries_total{outcome="ok"} 3` + "\n",
		"# TYPE test_bytes gauge\n",
		"test_bytes 1024\n",
		"# TYPE test_served_total counter\n",
		"test_served_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, even with two labeled series.
	if n := strings.Count(out, "# TYPE test_queries_total"); n != 1 {
		t.Errorf("family header appears %d times", n)
	}
	// Families are sorted.
	if strings.Index(out, "test_bytes") > strings.Index(out, "test_queries_total") {
		t.Error("families not sorted")
	}
}

func TestFuncMetricsLastRegistrationWins(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("test_g", "", func() float64 { return 1 })
	reg.GaugeFunc("test_g", "", func() float64 { return 2 })
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "test_g 2\n") {
		t.Fatalf("replacement fn not used:\n%s", sb.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	reg.GaugeFunc("test_x", "", func() float64 { return 0 })
}

func TestAdminMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "").Add(7)
	slow := NewSlowLog(2)
	srv := httptest.NewServer(NewAdminMux(reg, slow))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "test_total 7") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/debug/slow"); code != 200 || !strings.Contains(body, "slow-query log") {
		t.Fatalf("/debug/slow = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestRegistryOnce(t *testing.T) {
	reg := NewRegistry()
	if !reg.Once("setup:a") {
		t.Fatal("first Once(a) = false, want true")
	}
	if reg.Once("setup:a") {
		t.Fatal("second Once(a) = true, want false")
	}
	if !reg.Once("setup:b") {
		t.Fatal("a distinct key must be first-seen independently")
	}
	// Keys are per registry, not global.
	if !NewRegistry().Once("setup:a") {
		t.Fatal("Once leaked across registries")
	}
	// Concurrent claimants: exactly one wins per key.
	var wins atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if reg.Once("setup:contested") {
				wins.Add(1)
			}
		}()
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("contested key claimed %d times, want exactly 1", wins.Load())
	}
}
