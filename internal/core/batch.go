package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"netout/internal/metapath"
)

// Batch execution answers the paper's third motivating challenge — "data
// analysts need to obtain results promptly" — for workloads of many
// queries: queries are independent, so a few goroutines run them in parallel
// on one engine, each query on the materializer handles it borrows
// (Engine.borrow). Every strategy is shared through views (NewView): a view
// reads the root's immutable index and shares its store, so
// one worker's miss is every other worker's hit; only traversal scratch and
// statistics are its own.

// NewView returns a materializer that shares m's pre-computed state — the
// immutable index and the one store: its norm tables, and for Cached its vectors,
// waist tables, singleflight group and cache-wide counters (CacheStatsOf) —
// but is safe to use concurrently with other views of m: traversal scratch
// and statistics (Stats) are private to the view. The store's norm tables are
// atomic words (visPath), so views read and fill them at once.
func NewView(m *Materializer) *Materializer {
	return &Materializer{tr: metapath.NewTraverser(m.tr.Graph()), ix: m.ix, lru: m.lru, strategy: m.strategy, hook: m.hook}
}

// BatchOptions configures ExecuteBatch.
type BatchOptions struct {
	// Workers is the pool size (default: GOMAXPROCS, at most one per query).
	Workers int
	// Context, if set, cancels the whole batch: in-flight queries abort at
	// per-vertex granularity, and entries not yet started report ctx.Err().
	// nil means the batch runs to completion.
	Context context.Context
}

// BatchResult pairs one query's outcome with its position and any error.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// ExecuteBatch runs the queries in parallel on eng, from opts.Workers
// goroutines that each claim the next unstarted index, and returns per-query
// results in input order. Individual query failures are reported per entry,
// not as one error.
func ExecuteBatch(eng *Engine, queries []string, opts BatchOptions) []BatchResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) && len(queries) > 0 {
		workers = len(queries)
	}
	ranges := eng.pooled()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(queries))
	var next atomic.Int64 // the next index to claim
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(queries); i = int(next.Add(1) - 1) {
				// Once the caller is gone, what is left is marked, not run.
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Index: i, Err: err}
					continue
				}
				res, err := eng.executeIsolated(ctx, queries[i], nil, ranges)
				results[i] = BatchResult{Index: i, Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return results
}

// pooled is the bound on the local ranges of a query a pool of goroutines
// over e runs: an unset query parallelism means 1 here, not GOMAXPROCS — a
// pool already spreads queries across cores, and per-query fan-out on top
// would oversubscribe the machine.
func (e *Engine) pooled() int { return max(e.parallelism, 1) }

// executeIsolated is execute behind a pool's panic isolation: a panicking
// query becomes that query's *PanicError on the goroutine that ran it — a
// ServePool caller's or a batch goroutine's — so one hostile query neither
// kills the process nor holds on to a pool's run token.
func (e *Engine) executeIsolated(ctx context.Context, src string, cc *compiledCache, ranges int) (res *Result, err error) {
	defer recoverAsError(&err)
	return e.execute(ctx, src, cc, ranges)
}
