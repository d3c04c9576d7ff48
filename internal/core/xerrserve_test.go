package core

// Tests for the serving error taxonomy: typed sentinels, cancel-vs-deadline
// accounting, and request-ID threading from Execute through the trace, the
// returned error and the slow log's failure ring.

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

// A drained pool must refuse queries with the typed ErrPoolClosed
// (UNAVAILABLE — the server's state, never the client's query), not an
// anonymous error that the HTTP layer would misclassify as a 400.
func TestServePoolClosedTyped(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(41)))
	before := runtime.NumGoroutine()
	pool := NewServePool(NewEngine(g), ServeOptions{Workers: 1})
	pool.Close()
	noGoroutineLeak(t, before)
	res, err := pool.Execute(context.Background(), faultQuery)
	if res != nil {
		t.Fatalf("res = %+v, want nil from a closed pool", res)
	}
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if xerr.CodeOf(err) != xerr.Unavailable {
		t.Fatalf("CodeOf = %s, want UNAVAILABLE", xerr.CodeOf(err))
	}
	if xerr.RequestIDOf(err) == "" {
		t.Fatal("closed-pool error carries no request ID")
	}
}

// The pool's typed sentinels classify for the adapters without any string
// matching.
func TestServeSentinelCodes(t *testing.T) {
	if xerr.CodeOf(ErrOverloaded) != xerr.ResourceExhausted {
		t.Fatalf("ErrOverloaded code = %s", xerr.CodeOf(ErrOverloaded))
	}
	if xerr.CodeOf(ErrPoolClosed) != xerr.Unavailable {
		t.Fatalf("ErrPoolClosed code = %s", xerr.CodeOf(ErrPoolClosed))
	}
	if xerr.HTTPStatus(ErrPoolClosed) != 503 {
		t.Fatalf("ErrPoolClosed status = %d, want 503", xerr.HTTPStatus(ErrPoolClosed))
	}
	if xerr.HTTPStatus(ErrOverloaded) != 429 {
		t.Fatalf("ErrOverloaded status = %d, want 429", xerr.HTTPStatus(ErrOverloaded))
	}
}

// Cancellation is not a timeout: a query aborted by its caller counts under
// the engine's canceled outcome, never under deadline.
func TestServePoolCancelNotTimeout(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(43)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loads atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if loads.Add(1) == 2 { // mid-execution, after the worker picked it up
			cancel()
		}
	})
	reg := obs.NewRegistry()
	before := runtime.NumGoroutine()
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg)), ServeOptions{Workers: 1})
	res, err := pool.Execute(ctx, faultQuery)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if xerr.CodeOf(err) != xerr.Canceled {
		t.Fatalf("CodeOf = %s, want CANCELED", xerr.CodeOf(err))
	}
	pool.Close() // joins the worker, so the accounting below is settled
	noGoroutineLeak(t, before)
	m := metricsOf(t, reg)
	if m[`netout_queries_total{outcome="canceled"}`] != 1 {
		t.Fatalf("canceled outcome = %v, want 1", m[`netout_queries_total{outcome="canceled"}`])
	}
	if v, ok := m[`netout_queries_total{outcome="deadline"}`]; ok {
		t.Fatalf("cancellation inflated the deadline outcome to %v", v)
	}
}

// Request-ID threading on the happy path: Execute generates an ID when the
// caller has none, and the ID lands on the result's trace; a caller-supplied
// ID is honored verbatim.
func TestServePoolRequestIDThreading(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(47)))
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	pool := NewServePool(NewEngine(g), ServeOptions{Workers: 1})
	defer pool.Close()

	res, err := pool.Execute(context.Background(), faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.RequestID == "" {
		t.Fatal("no request ID on the trace of a pool-served query")
	}

	ctx := obs.WithRequestID(context.Background(), "caller-supplied-id")
	res, err = pool.Execute(ctx, faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.RequestID != "caller-supplied-id" {
		t.Fatalf("trace rid = %q, want the caller's", res.Trace.RequestID)
	}
}

// The 500-debuggability contract end to end: a worker panic comes back as a
// request-ID-stamped INTERNAL defect, and that same ID addresses the
// slow log's failure ring, where the stack of the panic is retained.
func TestServePoolPanicRequestIDLocatesStack(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(53)))
	fm := hooked(NewBaseline(g), fireOnce("injected rid fault"))
	slow := obs.NewSlowLog(4)
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithEventSink(slow)), ServeOptions{Workers: 1})
	defer pool.Close()

	res, err := pool.Execute(context.Background(), faultQuery)
	if res != nil || !IsPanicError(err) {
		t.Fatalf("got (%v, %v), want (nil, *PanicError)", res, err)
	}
	if xerr.CodeOf(err) != xerr.Internal || xerr.KindOf(err) != xerr.KindDefect {
		t.Fatalf("panic classified as %s/%s, want defect/INTERNAL", xerr.KindOf(err), xerr.CodeOf(err))
	}
	rid := xerr.RequestIDOf(err)
	if rid == "" {
		t.Fatal("panic error carries no request ID")
	}
	if st := xerr.StackOf(err); !strings.Contains(st, "NeighborVector") {
		t.Fatalf("StackOf through the rid wrapper lost the panic stack:\n%s", st)
	}

	// The failure ring is written by the engine's observation hook on the
	// worker goroutine; Execute has returned, so it is already recorded.
	var entry *obs.Event
	for _, f := range slow.Failures() {
		if f.RequestID == rid {
			entry = f
		}
	}
	if entry == nil {
		t.Fatalf("no failure event with rid %q in the slow log (failures: %+v)", rid, slow.Failures())
	}
	if !strings.Contains(entry.Error, "injected rid fault") {
		t.Fatalf("failure event error = %q", entry.Error)
	}
	if !strings.Contains(entry.Stack, "injected rid fault") && !strings.Contains(entry.Stack, "NeighborVector") {
		t.Fatalf("failure entry retains no usable stack:\n%s", entry.Stack)
	}
	// And the rendered /debug/slow page carries the correlation.
	page := slow.Format()
	for _, want := range []string{"rid=" + rid, "error: ", "injected rid fault", "NeighborVector"} {
		if !strings.Contains(page, want) {
			t.Fatalf("slow log page does not mention %q:\n%s", want, page)
		}
	}
}

// Engine errors carry their taxonomy codes: the codes — not the strings —
// are what the HTTP layer keys on.
func TestEngineErrorCodes(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(59)))
	eng := NewEngine(g)
	for _, tc := range []struct {
		src  string
		code xerr.Code
	}{
		{`FIND OUTLIERS FROM author{"No Such Author"} JUDGED BY author.paper.venue;`, xerr.NotFound},
		{`FIND OUTLIERS FROM widget JUDGED BY author.paper.venue;`, xerr.InvalidArgument},
		{`FIND OUTLIERS FROM;`, xerr.InvalidArgument}, // parse error
		{`FIND OUTLIERS FROM author;`, xerr.InvalidArgument},
	} {
		_, err := eng.Execute(tc.src)
		if err == nil {
			t.Fatalf("%s: expected an error", tc.src)
		}
		if got := xerr.CodeOf(err); got != tc.code {
			t.Errorf("%s: code = %s, want %s", tc.src, got, tc.code)
		}
	}
}

// A query whose deadline ends while it waits for a run token fails with
// DEADLINE_EXCEEDED like one that expired running. It never reached the
// engine, which counts only the token holder; the front door counts the
// expiry (HTTP 504, a shard's deadline outcome).
func TestServePoolQueueExpiryIsATimeout(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(61)))
	gate, entered := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-gate // hold the only token
		}
	})
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	reg := obs.NewRegistry()
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg)), ServeOptions{Workers: 1})
	defer pool.Close()
	held := make(chan error, 1)
	go func() {
		_, err := pool.Execute(context.Background(), faultQuery)
		held <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := pool.Execute(ctx, faultQuery)
	close(gate)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past its deadline: got (%v, %v), want DEADLINE_EXCEEDED", res, err)
	}
	if err := <-held; err != nil {
		t.Fatalf("token holder: %v", err)
	}
	if m := metricsOf(t, reg); m[`netout_queries_total{outcome="ok"}`] != 1 || m["netout_query_seconds_count"] != 1 {
		t.Fatalf("engine counted %v ok of %v queries, want the token holder's alone", m[`netout_queries_total{outcome="ok"}`], m["netout_query_seconds_count"])
	}
}
