package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/obs"
	"netout/internal/xerr"
)

// ErrOverloaded is returned by ServePool.Execute when admission control is
// on (ServeOptions.MaxQueue > 0) and the queue is full: the pool sheds the
// query immediately instead of queueing unboundedly. Callers should treat it
// as retryable back-pressure: code RESOURCE_EXHAUSTED, HTTP 429, not 500.
var ErrOverloaded = xerr.New(xerr.ResourceExhausted, "core: serve pool overloaded")

// ErrPoolClosed is returned by ServePool.Execute once Close has begun: the
// pool is draining or gone and this replica cannot take the query. Its code
// is UNAVAILABLE (HTTP 503) — a shutting-down server is never the client's
// fault, and a load balancer should retry elsewhere.
var ErrPoolClosed = xerr.New(xerr.Unavailable, "core: ServePool is closed")

// ServePool is the serving front door for heavy query traffic: a bounded
// number of goroutines executing on the one engine the caller configured,
// each query on the materializer handles it borrows. With a cached
// materializer the pool realizes the shared warm cache end to end — every
// worker's traversals warm every other worker's lookups, and concurrent
// misses on the same vertex are singleflighted. Unlike ExecuteBatch (one shot
// over a fixed query slice),
// a ServePool stays up and accepts queries one at a time from any number
// of goroutines, which matches an online analyst workload.
type ServePool struct {
	mu     sync.RWMutex // guards closed against concurrent Execute/Close
	closed bool
	jobs   chan serveJob
	wg     sync.WaitGroup

	eng *Engine
	// compiled is the pool's compiled-query cache (compiled.go) and ranges its
	// bound on a query's local ranges, passed to eng with every call.
	compiled *compiledCache
	ranges   int

	timeout time.Duration // default per-query deadline (0 = none)
	grace   time.Duration // post-deadline wait for a degraded reply (serveDrainGrace)

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

// serveDrainGrace bounds how long Execute waits, after a query's deadline
// expires, for the worker's own reply — which under the NetOut measure is a
// Partial=true result covering the work done so far (see Result.Partial). The
// worker observes the same expired deadline at its next per-vertex check, so
// the reply normally arrives promptly; the bound keeps a stalled materializer
// from stranding the caller.
const serveDrainGrace = 250 * time.Millisecond

// ServeOptions configures NewServePool: what is the pool's own. Everything
// about how a query runs — measure, materializer, query parallelism, remote
// shards, registry, event sink, in-flight table — is the engine's.
type ServeOptions struct {
	// Workers is the pool size (default: GOMAXPROCS).
	Workers int
	// MaxQueue, when positive, turns on admission control: at most MaxQueue
	// queries may be queued waiting for a worker, and further Execute calls
	// fail fast with ErrOverloaded instead of blocking unboundedly. 0 (the
	// default) keeps the pre-admission behavior: Execute blocks until a
	// worker is free or the context ends.
	MaxQueue int
	// DefaultTimeout, when positive, is the per-query deadline applied to
	// Execute calls whose context carries no deadline of its own. A caller
	// deadline always wins; DefaultTimeout is the pool's backstop against
	// runaway queries from callers that never set one.
	DefaultTimeout time.Duration
}

// ServeStats summarizes a pool's lifetime traffic.
type ServeStats struct {
	// Served and Failed count completed queries by outcome (Failed includes
	// cancellations observed by a worker).
	Served, Failed int64
	// QueueWait is total time queries spent waiting for a free worker;
	// Execute is total time spent executing.
	QueueWait, Execute time.Duration
	// Shed counts queries rejected with ErrOverloaded by admission control
	// (they never reached a worker and are in neither Served nor Failed).
	Shed int64
	// Panics counts worker panics recovered and converted into query errors
	// (each is also counted in Failed).
	Panics int64
	// Timeouts counts queries a worker completed with an expired deadline
	// (counted in Failed); Partials counts deadline-degraded queries that
	// still produced a Partial=true result (counted in Served).
	Timeouts, Partials int64
	// Canceled counts queries a worker observed aborting with
	// context.Canceled — a caller that went away, not a timeout and not a
	// server fault (counted in Failed, never in Timeouts).
	Canceled int64
}

type serveJob struct {
	ctx      context.Context
	src      string
	enqueued time.Time
	done     chan serveDone
}

type serveDone struct {
	res *Result
	err error
}

// NewServePool starts opts.Workers goroutines executing queries on eng. With a
// registry on eng (WithObs) the pool's traffic counters are registered there.
// The pool does not close eng's remote shards, and leaves eng as usable as it
// found it. Callers must Close the pool to release its workers.
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
		// The queue buffer IS the admission bound: with MaxQueue set, a send
		// that cannot buffer means MaxQueue queries are already waiting.
		jobs:     make(chan serveJob, max(opts.MaxQueue, 0)),
		eng:      eng,
		compiled: newCompiledCache(eng.mat),
		ranges:   ranges,
		timeout:  opts.DefaultTimeout,
		grace:    serveDrainGrace,
	}
	if eng.obs != nil {
		p.registerMetrics(eng.obs, workers)
	}
	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.serveJob(job)
			}
		}()
	}
	return p, nil
}

// serveJob runs one query behind executeIsolated, so the reply channel is
// ALWAYS written (a panic would otherwise strand the caller forever on a
// background context) and the worker survives to take the next job.
func (p *ServePool) serveJob(job serveJob) {
	wait := time.Since(job.enqueued)
	p.queueNs.Add(wait.Nanoseconds())
	if p.queueHist != nil {
		p.queueHist.Observe(wait.Seconds())
	}
	// The wait rides the context into the engine so the query's wide event
	// reports how long it sat in the queue before a worker picked it up.
	ctx := obs.WithQueueWait(job.ctx, wait)
	start := time.Now()
	res, err := p.eng.executeIsolated(ctx, job.src, p.compiled, p.ranges)
	elapsed := time.Since(start)
	p.executeNs.Add(elapsed.Nanoseconds())
	if p.execHist != nil {
		p.execHist.Observe(elapsed.Seconds())
	}
	if err != nil {
		res = nil
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
	} else {
		p.served.Add(1)
		if res != nil && res.Partial {
			p.partials.Add(1)
		}
	}
	job.done <- serveDone{res: res, err: err}
}

// Execute runs one query on the pool, blocking until a worker is free and
// the query completes. It is safe to call from any number of goroutines.
// The context bounds both the wait for a worker and the execution itself;
// a query abandoned after dispatch still aborts promptly, because the
// worker checks the context at per-vertex granularity. When the pool has a
// DefaultTimeout and ctx carries no deadline, the timeout is applied here;
// with MaxQueue set, a full queue fails fast with ErrOverloaded; a closed
// pool fails with ErrPoolClosed.
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
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return nil, xerr.WithRequestID(ErrPoolClosed, rid)
	}
	if err := ctxErr(ctx); err != nil {
		p.mu.RUnlock()
		return nil, xerr.WithRequestID(xerr.Interrupt(err), rid)
	}
	job := serveJob{ctx: ctx, src: src, enqueued: time.Now(), done: make(chan serveDone, 1)}
	if cap(p.jobs) > 0 {
		// Admission control: never block on the queue. A send that cannot
		// complete immediately means the buffer already holds MaxQueue
		// waiting queries — shed this one.
		select {
		case p.jobs <- job:
			p.mu.RUnlock()
		default:
			p.mu.RUnlock()
			p.shed.Add(1)
			return nil, xerr.WithRequestID(ErrOverloaded, rid)
		}
	} else {
		select {
		case p.jobs <- job:
			p.mu.RUnlock()
		case <-ctx.Done():
			p.mu.RUnlock()
			return nil, xerr.WithRequestID(xerr.Interrupt(ctx.Err()), rid)
		}
	}
	select {
	case d := <-job.done:
		return d.res, xerr.WithRequestID(d.err, rid)
	case <-ctx.Done():
		if degradable(ctx.Err()) && p.grace > 0 {
			// The worker observes this same expired deadline at its next
			// per-vertex check and replies promptly — under NetOut with a
			// Partial=true result covering the candidates scored so far.
			// Wait briefly for that reply instead of discarding it; the
			// bound keeps a stalled materializer from stranding us.
			t := time.NewTimer(p.grace)
			defer t.Stop()
			select {
			case d := <-job.done:
				return d.res, xerr.WithRequestID(d.err, rid)
			case <-t.C:
			}
		}
		// The worker aborts via the same context; its result is discarded
		// into the buffered done channel.
		return nil, xerr.WithRequestID(xerr.Interrupt(ctx.Err()), rid)
	}
}

// registerMetrics exposes the pool's traffic counters on reg, reading the
// same atomics Stats snapshots so scrape and ServeStats agree exactly.
func (p *ServePool) registerMetrics(reg *obs.Registry, workers int) {
	reg.GaugeFunc("netout_serve_workers", "Resident worker count of the serve pool.",
		func() float64 { return float64(workers) })
	reg.CounterFunc("netout_serve_served_total", "Queries completed successfully by the serve pool.",
		func() float64 { return float64(p.served.Load()) })
	reg.CounterFunc("netout_serve_failed_total", "Queries that failed or were cancelled in the serve pool.",
		func() float64 { return float64(p.failed.Load()) })
	reg.CounterFunc("netout_serve_shed_total", "Queries rejected with ErrOverloaded by admission control.",
		func() float64 { return float64(p.shed.Load()) })
	reg.CounterFunc("netout_serve_panics_total", "Worker panics recovered and converted into query errors.",
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
	reg.GaugeFunc("netout_compiled_bytes", "Bytes the compiled-query entries are charged (under the cached strategy, part of netout_cache_bytes).",
		func() float64 { return float64(p.compiled.bytes.Load()) })
	p.queueHist = reg.Histogram("netout_serve_queue_seconds",
		"Per-query time spent waiting for a free worker.")
	p.execHist = reg.Histogram("netout_serve_execute_seconds",
		"Per-query worker execution time.")
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

// Close stops the pool and waits for in-flight queries to finish. Further
// Execute calls fail. Close is idempotent.
func (p *ServePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
	p.compiled.close()
}
