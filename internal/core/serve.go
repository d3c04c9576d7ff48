package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// ErrOverloaded is returned by ServePool.Execute and Run when admission
// control is on (ServeOptions.MaxQueue > 0) and the queue is full: the pool
// sheds the query immediately instead of queueing unboundedly. Callers should
// treat it as retryable back-pressure: code RESOURCE_EXHAUSTED, HTTP 429.
var ErrOverloaded = xerr.New(xerr.ResourceExhausted, "core: serve pool overloaded")

// ErrPoolClosed is returned by ServePool.Execute and Run once Close has
// begun: the pool is draining or gone and this replica cannot take the query.
// Its code is UNAVAILABLE (HTTP 503) — a shutting-down server is never the
// client's fault, and a load balancer should retry elsewhere.
var ErrPoolClosed = xerr.New(xerr.Unavailable, "core: ServePool is closed")

// ServePool is the serving front door: an admission gate in front of the one
// engine the caller configured, for its queries (Execute) and a shard server's
// requests (Run). Each runs on its caller's goroutine, on the materializer
// handles it borrows, once it holds one of Workers run tokens; the pool itself
// runs no goroutine. With a cached materializer every query's traversals warm
// every other query's lookups, and concurrent misses on the same vertex are
// singleflighted. Unlike ExecuteBatch (one shot over a fixed query slice), a
// ServePool stays up and takes work one call at a time from any number of
// goroutines, which matches an online analyst workload.
type ServePool struct {
	mu     sync.RWMutex // guards closed against concurrent Execute/Close
	closed bool
	wg     sync.WaitGroup // admitted Execute calls, joined by Close

	// slots is the admission bound, Workers+MaxQueue (nil without MaxQueue: a
	// caller then waits for a token as long as its context allows); tokens
	// holds one entry per query running.
	slots, tokens chan struct{}

	eng *Engine
	// compiled is the pool's compiled-query cache (compiled.go) and ranges its
	// bound on a query's local ranges, passed to eng with every call.
	compiled *compiledCache
	ranges   int

	timeout time.Duration // default per-query deadline (0 = none)

	served    atomic.Int64
	failed    atomic.Int64
	queueNs   atomic.Int64
	executeNs atomic.Int64
	shed      atomic.Int64
	panics    atomic.Int64
	timeouts  atomic.Int64
	partials  atomic.Int64
	canceled  atomic.Int64

	// queueHist and execHist are the per-query distributions of the two
	// durations summed above, set when the engine has a registry.
	queueHist *obs.Histogram
	execHist  *obs.Histogram
}

// ServeOptions configures NewServePool: what is the pool's own. Everything
// about how a query runs — measure, materializer, query parallelism, remote
// shards, registry, event sink, in-flight table — is the engine's.
type ServeOptions struct {
	// Workers is how many queries run at once (default: GOMAXPROCS).
	Workers int
	// MaxQueue, when positive, turns on admission control: at most MaxQueue
	// queries may wait for a run token, and further Execute calls fail fast
	// with ErrOverloaded instead of blocking unboundedly. 0 (the default)
	// keeps the pre-admission behavior: Execute blocks until a token is free
	// or the context ends.
	MaxQueue int
	// DefaultTimeout, when positive, is the per-query deadline applied to
	// Execute calls whose context carries no deadline of its own. A caller
	// deadline always wins; DefaultTimeout is the pool's backstop against
	// runaway queries from callers that never set one.
	DefaultTimeout time.Duration
}

// ServeStats summarizes a pool's lifetime traffic.
type ServeStats struct {
	// Served and Failed count admitted queries by outcome (Failed includes
	// those whose context ended while they waited for a run token).
	Served, Failed int64
	// QueueWait is total time queries spent waiting for a run token;
	// Execute is total time spent executing.
	QueueWait, Execute time.Duration
	// Shed counts queries rejected with ErrOverloaded by admission control
	// (they never ran and are in neither Served nor Failed).
	Shed int64
	// Panics counts query panics recovered and converted into query errors
	// (each is also counted in Failed).
	Panics int64
	// Timeouts counts admitted queries that failed with an expired deadline
	// (counted in Failed); Partials counts deadline-degraded queries that
	// still produced a Partial=true result (counted in Served).
	Timeouts, Partials int64
	// Canceled counts admitted queries that aborted with context.Canceled —
	// a caller that went away, not a timeout and not a server fault (counted
	// in Failed, never in Timeouts).
	Canceled int64
}

// NewServePool builds the admission gate for eng's queries; it starts no
// goroutine. With a registry on eng (WithObs) the pool's traffic counters are
// registered there. The pool does not close eng's remote shards, and leaves
// eng as usable as it found it. Close waits for the queries it admitted.
func NewServePool(eng *Engine, opts ServeOptions) (*ServePool, error) {
	ranges, err := eng.pooled()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ServePool{
		tokens:   make(chan struct{}, workers),
		eng:      eng,
		compiled: newCompiledCache(eng.mat),
		ranges:   ranges,
		timeout:  opts.DefaultTimeout,
	}
	if opts.MaxQueue > 0 {
		p.slots = make(chan struct{}, workers+opts.MaxQueue)
	}
	if eng.obs != nil {
		p.registerMetrics(eng.obs, workers)
	}
	return p, nil
}

// Execute runs one query on the caller's goroutine once the pool admits it
// and a run token is free; it is safe to call from any number of goroutines.
// The context bounds the wait for a token and the execution, and the engine's
// degradation rule is the only one: a deadline that expires mid-query returns
// the engine's Partial result or its error. A DefaultTimeout applies when ctx
// has no deadline; a full MaxQueue fails fast with ErrOverloaded, a closed
// pool with ErrPoolClosed.
//
// Every query is stamped with a per-request correlation ID — the caller's,
// when ctx carries one (obs.WithRequestID), or a fresh one. The ID rides
// the context into the engine's trace (Result.Trace.RequestID) and the
// query's event, and every error Execute returns carries it
// (xerr.RequestIDOf), so a failure is correlatable end to end.
func (p *ServePool) Execute(ctx context.Context, src string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rid := obs.RequestIDFrom(ctx)
	if rid == "" {
		rid = obs.NewRequestID()
		ctx = obs.WithRequestID(ctx, rid)
	}
	if p.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, p.timeout)
			defer cancel()
		}
	}
	res, err := p.admit(ctx, func(ctx context.Context) (*Result, error) {
		return p.eng.executeIsolated(ctx, src, p.compiled, p.ranges)
	})
	return res, xerr.WithRequestID(err, rid)
}

// Run is Execute's gate around fn — a shard server's request (shardnet): fn
// runs on a handle the engine lends, over its network g; its error (a panic as
// a *PanicError) is Run's, counted like a query's. Run adds no deadline or ID.
func (p *ServePool) Run(ctx context.Context, fn func(ctx context.Context, g *hin.Graph, mat Materializer) error) error {
	_, err := p.admit(ctx, func(ctx context.Context) (_ *Result, err error) {
		defer recoverAsError(&err)
		hs, err := p.eng.borrow(1)
		if err != nil {
			return nil, err
		}
		defer p.eng.release(hs)
		return nil, fn(ctx, p.eng.g, hs.mats[0])
	})
	return err
}

// admit is the gate, written once for Execute and Run: closed, interrupted,
// shed, the wait for a run token, then fn — timed and counted — with that wait
// on its context, so a query's wide event reports it.
func (p *ServePool) admit(ctx context.Context, fn func(context.Context) (*Result, error)) (*Result, error) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, ErrPoolClosed
	}
	if err := ctxErr(ctx); err != nil {
		p.mu.RUnlock()
		return nil, xerr.Interrupt(err)
	}
	if p.slots != nil {
		select {
		case p.slots <- struct{}{}:
			defer func() { <-p.slots }()
		default:
			p.mu.RUnlock()
			p.shed.Add(1)
			return nil, ErrOverloaded
		}
	}
	p.wg.Add(1)
	p.mu.RUnlock()
	defer p.wg.Done()

	enqueued := time.Now()
	select {
	case p.tokens <- struct{}{}:
		defer func() { <-p.tokens }()
	case <-ctx.Done():
		// Out of budget (or abandoned) in the queue: an admitted query that
		// failed, counted like one that failed running.
		return p.outcome(nil, xerr.Interrupt(ctx.Err()))
	}
	wait := time.Since(enqueued)
	p.queueNs.Add(wait.Nanoseconds())
	if p.queueHist != nil {
		p.queueHist.Observe(wait.Seconds())
	}
	start := time.Now()
	res, err := fn(obs.WithQueueWait(ctx, wait))
	elapsed := time.Since(start)
	p.executeNs.Add(elapsed.Nanoseconds())
	if p.execHist != nil {
		p.execHist.Observe(elapsed.Seconds())
	}
	return p.outcome(res, err)
}

// outcome counts how an admitted query ended and returns it as the caller
// gets it.
func (p *ServePool) outcome(res *Result, err error) (*Result, error) {
	if err != nil {
		p.failed.Add(1)
		switch {
		case IsPanicError(err):
			p.panics.Add(1)
		case degradable(err):
			// Deadline expiry only: cancellation must never inflate the
			// timeout count — degradable excludes context.Canceled.
			p.timeouts.Add(1)
		case errors.Is(err, context.Canceled):
			p.canceled.Add(1)
		}
		return nil, err
	}
	p.served.Add(1)
	if res != nil && res.Partial {
		p.partials.Add(1)
	}
	return res, nil
}

// registerMetrics exposes the pool's traffic counters on reg, reading the
// same atomics Stats snapshots so scrape and ServeStats agree exactly.
func (p *ServePool) registerMetrics(reg *obs.Registry, workers int) {
	reg.GaugeFunc("netout_serve_workers", "Queries the serve pool runs at once (its run tokens).",
		func() float64 { return float64(workers) })
	reg.CounterFunc("netout_serve_served_total", "Queries completed successfully by the serve pool.",
		func() float64 { return float64(p.served.Load()) })
	reg.CounterFunc("netout_serve_failed_total", "Queries that failed or were cancelled in the serve pool.",
		func() float64 { return float64(p.failed.Load()) })
	reg.CounterFunc("netout_serve_shed_total", "Queries rejected with ErrOverloaded by admission control.",
		func() float64 { return float64(p.shed.Load()) })
	reg.CounterFunc("netout_serve_panics_total", "Query panics recovered and converted into query errors.",
		func() float64 { return float64(p.panics.Load()) })
	reg.CounterFunc("netout_serve_timeouts_total", "Queries that failed with an expired deadline.",
		func() float64 { return float64(p.timeouts.Load()) })
	reg.CounterFunc("netout_serve_partials_total", "Deadline-degraded queries answered with a Partial=true result.",
		func() float64 { return float64(p.partials.Load()) })
	reg.CounterFunc("netout_serve_canceled_total", "Queries aborted by caller cancellation (not timeouts).",
		func() float64 { return float64(p.canceled.Load()) })
	reg.CounterFunc(`netout_compiled_queries_total{result="hit"}`, "Queries by whether the pool held their text's compiled entry (parse, resolution, reduced reference side).",
		func() float64 { return float64(p.compiled.hits.Load()) })
	reg.CounterFunc(`netout_compiled_queries_total{result="miss"}`, "Queries by whether the pool held their text's compiled entry (parse, resolution, reduced reference side).",
		func() float64 { return float64(p.compiled.misses.Load()) })
	reg.GaugeFunc("netout_compiled_entries", "Compiled-query entries the pool holds.",
		func() float64 { return float64(p.compiled.count.Load()) })
	reg.GaugeFunc("netout_compiled_bytes", "Bytes the pool's compiled-query entries are charged in the materializer's store, ranked and evicted with its other entries (part of netout_index_bytes).",
		func() float64 { return float64(p.compiled.bytes.Load()) })
	p.queueHist = reg.Histogram("netout_serve_queue_seconds",
		"Per-query time spent waiting for a run token.")
	p.execHist = reg.Histogram("netout_serve_execute_seconds",
		"Per-query execution time, token held.")
}

// Ready reports whether the pool can accept queries: nil while open,
// ErrPoolClosed once Close has begun. It is the readiness source behind
// /readyz (obs.WithReadiness) — a draining replica stays alive for /healthz
// while telling the load balancer to route elsewhere.
func (p *ServePool) Ready() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	return nil
}

// Stats returns a snapshot of the pool's traffic counters.
func (p *ServePool) Stats() ServeStats {
	return ServeStats{
		Served:    p.served.Load(),
		Failed:    p.failed.Load(),
		QueueWait: time.Duration(p.queueNs.Load()),
		Execute:   time.Duration(p.executeNs.Load()),
		Shed:      p.shed.Load(),
		Panics:    p.panics.Load(),
		Timeouts:  p.timeouts.Load(),
		Partials:  p.partials.Load(),
		Canceled:  p.canceled.Load(),
	}
}

// Close stops admitting and waits for the queries already admitted to
// finish. Further Execute calls fail. Close is idempotent.
func (p *ServePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	p.compiled.close()
}
