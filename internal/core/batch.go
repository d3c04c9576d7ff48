package core

import (
	"context"
	"runtime"
	"sync"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// Batch execution answers the paper's third motivating challenge — "data
// analysts need to obtain results promptly" — for workloads of many
// queries: queries are independent, so a worker pool with per-worker
// engines processes them in parallel. Pre-materialized indexes are shared
// read-only across workers via views (the index is immutable after
// construction; only the per-materializer statistics are worker-local).
// Cached materializers are shared warm: every view references the same
// shard set, so one worker's miss is every other worker's hit.

// NewView returns a materializer that shares m's pre-computed state but is
// safe to use concurrently with other views of m:
//
//   - baseline: a fresh traverser and private statistics over the root's
//     visibility table (atomic words, see visTable).
//   - PM/SPM: the immutable index is shared; traversal scratch space and
//     statistics are private to the view.
//   - cached: the view references the SAME shard set, singleflight group
//     and counters, so warm entries and stats are shared across views
//     (the whole point of the online-discovery strategy in a concurrent
//     workload). The shared cache is internally synchronized.
func NewView(m Materializer) (Materializer, error) {
	if v, ok := m.(viewable); ok {
		return v.view()
	}
	switch v := m.(type) {
	case *baseline:
		return &baseline{tr: metapath.NewTraverser(v.tr.Graph()), vis: v.vis}, nil
	case *indexedMaterializer:
		return &indexedMaterializer{
			tr:       metapath.NewTraverser(v.tr.Graph()),
			ix:       v.ix,
			strategy: v.strategy,
		}, nil
	case *cached:
		return &cached{state: v.state}, nil
	}
	return nil, xerr.Newf(xerr.Internal, "core: cannot create a concurrent view of %T", m)
}

// viewable lets a materializer outside the built-in set supply its own
// concurrent views. This is the seam the fault-injection harness wraps real
// materializers through (faultinject_test.go); the built-in strategies use
// the type switch above.
type viewable interface {
	view() (Materializer, error)
}

// BatchOptions configures ExecuteBatch.
type BatchOptions struct {
	// Workers is the pool size (default: GOMAXPROCS).
	Workers int
	// Measure is the outlierness measure (default MeasureNetOut).
	Measure Measure
	// Combination is the multi-path combination mode (default average).
	Combination Combination
	// Materializer, if set, is the shared strategy whose index the workers
	// reuse through views; nil means views of one fresh baseline.
	Materializer Materializer
	// QueryParallelism bounds each worker engine's local ranges per query
	// (WithQueryParallelism). Default 1: the batch already parallelizes
	// across queries, so per-query fan-out would oversubscribe the machine.
	QueryParallelism int
	// Obs and SlowLog, if set, are wired into every worker engine: each
	// query observes its latency, phase breakdown and outcome into Obs and
	// offers itself to SlowLog (see Engine's WithObs).
	Obs     *obs.Registry
	SlowLog *obs.SlowLog
	// Context, if set, cancels the whole batch: dispatch stops at the next
	// query, in-flight queries abort at per-vertex granularity, and entries
	// never dispatched report ctx.Err(). nil means the batch runs to
	// completion.
	Context context.Context
}

// BatchResult pairs one query's outcome with its position and any error.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// ExecuteBatch runs the queries in parallel and returns per-query results
// in input order. Individual query failures are reported per entry, not as
// a global error; the global error covers setup problems only.
func ExecuteBatch(g *hin.Graph, queries []string, opts BatchOptions) ([]BatchResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) && len(queries) > 0 {
		workers = len(queries)
	}
	engines, err := newWorkerEngines(g, workers, opts.QueryParallelism, opts.Materializer,
		WithMeasure(opts.Measure),
		WithCombination(opts.Combination),
		WithObs(opts.Obs, opts.SlowLog))
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil && opts.Materializer != nil {
		RegisterMaterializerMetrics(opts.Obs, opts.Materializer)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(queries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for _, eng := range engines {
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			for i := range jobs {
				res, err := eng.executeIsolated(ctx, queries[i])
				results[i] = BatchResult{Index: i, Result: res, Err: err}
			}
		}(eng)
	}
dispatch:
	for i := range queries {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// The caller is gone: stop feeding workers and mark everything
			// not yet dispatched. Indices i.. are never sent, so these
			// writes cannot race a worker's.
			for j := i; j < len(queries); j++ {
				results[j] = BatchResult{Index: j, Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results, nil
}

// newWorkerEngines builds the engines of a worker pool (ExecuteBatch,
// ServePool): workers of them (default GOMAXPROCS), each on its own view of
// root (nil: of one fresh baseline), each splitting a query into at most
// queryPar local ranges — default 1, since a pool already spreads queries
// across cores and per-query fan-out on top would oversubscribe the machine.
func newWorkerEngines(g *hin.Graph, workers, queryPar int, root Materializer, opts ...Option) ([]*Engine, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queryPar <= 0 {
		queryPar = 1
	}
	if root == nil {
		root = NewBaseline(g)
	}
	opts = append(opts, WithQueryParallelism(queryPar))
	engines := make([]*Engine, workers)
	for w := range engines {
		mat, err := NewView(root)
		if err != nil {
			return nil, err
		}
		engines[w] = NewEngine(g, append(opts, WithMaterializer(mat))...)
	}
	return engines, nil
}

// executeIsolated is ExecuteContext behind a pool worker's panic isolation: a
// panicking query becomes that query's *PanicError and the worker moves on,
// so one hostile query neither kills the process, strands its caller nor
// shrinks the pool.
func (e *Engine) executeIsolated(ctx context.Context, src string) (res *Result, err error) {
	defer recoverAsError(&err)
	return e.ExecuteContext(ctx, src)
}
