package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// Each query's outcome is counted once, by the engine, under its taxonomy
// label: a partial answer is ok, a parse failure invalid, an unknown anchor
// not_found, a recovered panic internal. What the pool's gate refuses — a shed,
// a budget spent waiting for a run token — never reaches the engine: its
// caller gets the typed error and counts nowhere else in process.
func TestEachOutcomeCountedOnce(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(13)))
	gate, entered := make(chan struct{}), make(chan struct{})
	var hold, fire atomic.Bool
	fm := hooked(eagerBaseline(g), func(metapath.Path, hin.VertexID) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-gate
		}
		if fire.CompareAndSwap(true, false) {
			panic("counted once")
		}
	})
	reg, ring := obs.NewRegistry(), obs.NewEventRing(16)
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg), WithEventSink(ring)),
		ServeOptions{Workers: 1, MaxQueue: 1})
	defer pool.Close()

	// Partial: the deadline expires mid-scan, polled once by the gate, once
	// as the query starts, setPolls times by the reference side and then per
	// candidate.
	cands, err := NewEngine(g).CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := pool.Execute(newDeadlineAfter(int64(2+setPolls+len(cands)/2)), faultQuery); err != nil || !res.Partial {
		t.Fatalf("deadline mid-scan: err=%v partial=%v, want a partial answer", err, res != nil && res.Partial)
	}

	// Ok, holding the only run token while one query waits out its budget in
	// the queue and the next is shed.
	hold.Store(true)
	held := make(chan error, 1)
	go func() {
		_, err := pool.Execute(context.Background(), faultRefQuery)
		held <- err
	}()
	<-entered
	queued := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		_, err := pool.Execute(ctx, faultRefQuery)
		queued <- err
	}()
	for len(pool.slots) < cap(pool.slots) {
		select {
		case err := <-queued:
			t.Fatalf("the second query never queued: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := pool.Execute(context.Background(), faultRefQuery); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full pool: %v, want ErrOverloaded", err)
	}
	if err := <-queued; xerr.CodeOf(err) != xerr.DeadlineExceeded {
		t.Fatalf("queued past its budget: %v, want DEADLINE_EXCEEDED", err)
	}
	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("token holder: %v", err)
	}

	if _, err := pool.Execute(context.Background(), "THIS IS NOT OQL;"); xerr.CodeOf(err) != xerr.InvalidArgument {
		t.Fatalf("parse failure: %v, want INVALID_ARGUMENT", err)
	}
	if _, err := pool.Execute(context.Background(), `FIND OUTLIERS FROM author{"No Such Author"} JUDGED BY author.paper.venue;`); xerr.CodeOf(err) != xerr.NotFound {
		t.Fatalf("unknown anchor: %v, want NOT_FOUND", err)
	}
	fire.Store(true)
	// A path no query has scanned yet, so its first load is this query's.
	if _, err := pool.Execute(context.Background(), `FIND OUTLIERS FROM author JUDGED BY author.paper.author;`); !IsPanicError(err) {
		t.Fatalf("panicking query: %v, want a *PanicError", err)
	}

	m := metricsOf(t, reg)
	want := map[string]float64{
		`netout_queries_total{outcome="ok"}`:        2,
		`netout_queries_total{outcome="invalid"}`:   1,
		`netout_queries_total{outcome="not_found"}`: 1,
		`netout_queries_total{outcome="internal"}`:  1,
		"netout_query_partial_total":                1,
		"netout_query_panics_total":                 1,
		"netout_query_seconds_count":                5,
	}
	for name, v := range m {
		if strings.HasPrefix(name, "netout_queries_total{") {
			if _, ok := want[name]; !ok {
				t.Errorf("%s = %v: an outcome no query here ended with", name, v)
			}
		}
	}
	for name, w := range want {
		if m[name] != w {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
	evs := ring.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("ring holds %d events, want one per query the engine ran (5)", len(evs))
	}
	outcomes := map[string]int{}
	for _, ev := range evs {
		outcomes[ev.Outcome]++
	}
	if outcomes["ok"] != 2 || outcomes["invalid"] != 1 || outcomes["not_found"] != 1 || outcomes["internal"] != 1 {
		t.Fatalf("event outcomes = %v, want ok 2, invalid 1, not_found 1, internal 1", outcomes)
	}
	// The pool's families are its run tokens and its two histograms, and the
	// engine's query families the four above: no second count of an outcome.
	kept := map[string]bool{
		"netout_serve_workers": true, "netout_serve_queue_seconds": true, "netout_serve_execute_seconds": true,
		"netout_query_seconds": true, "netout_query_phase_seconds": true, "netout_query_partial_total": true, "netout_query_panics_total": true,
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[1] != "TYPE" {
			continue
		}
		if fam := fields[2]; (strings.HasPrefix(fam, "netout_serve_") || strings.HasPrefix(fam, "netout_query_")) && !kept[fam] {
			t.Errorf("scrape exports %s", fam)
		}
	}
}
