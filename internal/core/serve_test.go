package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"netout/internal/obs"
)

func TestServePoolMatchesSerialEngine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomBibGraph(r)
	var queries []string
	for len(queries) < 9 {
		queries = append(queries, randomQueries(r, g)...)
	}
	serial := NewEngine(g)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := serial.Execute(q)
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		want[i] = res
	}

	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	reg := obs.NewRegistry()
	pool := NewServePool(NewEngine(g, WithMaterializer(mat), WithObs(reg)), ServeOptions{Workers: 4})
	defer pool.Close()

	// Hammer the pool from more goroutines than workers, each running the
	// whole workload; every result must match the serial engine.
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range queries {
				res, err := pool.Execute(context.Background(), q)
				if err != nil {
					errCh <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if !resultsEqual(res, want[i]) {
					errCh <- fmt.Errorf("client %d query %d: result differs from serial engine", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := metricsOf(t, reg)
	n := float64(clients * len(queries))
	if m[`netout_queries_total{outcome="ok"}`] != n || m["netout_query_seconds_count"] != n {
		t.Fatalf("engine counted %v ok of %v queries, want all %v ok",
			m[`netout_queries_total{outcome="ok"}`], m["netout_query_seconds_count"], n)
	}
	if m["netout_serve_execute_seconds_count"] != n || m["netout_serve_execute_seconds_sum"] <= 0 || m["netout_serve_queue_seconds_sum"] < 0 {
		t.Fatalf("pool timed %v executions (sum %vs, queue %vs), want %v, a positive execute time and no negative queue wait",
			m["netout_serve_execute_seconds_count"], m["netout_serve_execute_seconds_sum"], m["netout_serve_queue_seconds_sum"], n)
	}
	// Workers share one warm cache through views: repeated workloads must
	// be overwhelmingly cache hits.
	cs, ok := CacheStatsOf(mat)
	if !ok {
		t.Fatal("CacheStatsOf failed")
	}
	if cs.Hits <= cs.Misses {
		t.Fatalf("shared cache not warm across workers: %+v", cs)
	}
}

func TestServePoolContextAndClose(t *testing.T) {
	g := fig1Graph(t)
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	pool := NewServePool(NewEngine(g, WithObs(reg)), ServeOptions{Workers: 2})
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`

	// A cancelled context aborts at the gate, never reaching the engine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Execute(ctx, src); err == nil {
		t.Fatal("cancelled Execute should fail")
	}
	// A nil context works (treated as Background).
	if _, err := pool.Execute(nil, src); err != nil { //nolint:staticcheck
		t.Fatalf("nil-context Execute: %v", err)
	}
	// A query failure is reported to the caller and counted as failed,
	// without poisoning the pool.
	if _, err := pool.Execute(context.Background(), `FIND OUTLIERS FROM author{"Nobody"} JUDGED BY author.paper.venue;`); err == nil {
		t.Fatal("bad query should fail")
	}
	if res, err := pool.Execute(context.Background(), src); err != nil || len(res.Entries) == 0 {
		t.Fatalf("pool unusable after a failed query: %v", err)
	}
	m := metricsOf(t, reg)
	if m[`netout_queries_total{outcome="ok"}`] != 2 || m[`netout_queries_total{outcome="not_found"}`] != 1 || m["netout_query_seconds_count"] != 3 {
		t.Fatalf("engine counted ok %v / not_found %v of %v, want 2 / 1 of 3 (the gate's refusal is not the engine's)",
			m[`netout_queries_total{outcome="ok"}`], m[`netout_queries_total{outcome="not_found"}`], m["netout_query_seconds_count"])
	}

	pool.Close()
	pool.Close() // idempotent
	noGoroutineLeak(t, before)
	if _, err := pool.Execute(context.Background(), src); err == nil {
		t.Fatal("Execute after Close should fail")
	}
}

func TestServePoolDefaultsAndErrors(t *testing.T) {
	g := fig1Graph(t)
	// Default worker count and baseline materializer.
	before := runtime.NumGoroutine()
	pool := NewServePool(NewEngine(g), ServeOptions{})
	if res, err := pool.Execute(context.Background(), `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`); err != nil || len(res.Entries) == 0 {
		t.Fatalf("default pool: %v", err)
	}
	pool.Close()
	noGoroutineLeak(t, before)
}
