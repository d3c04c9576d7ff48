package core

// Fault-injection harness for the serving-robustness layer: deterministic
// panics, stalls and cancellations injected at the materializer's own seam,
// its hook, on the strategies the engine ships (hooked). Every test here must
// pass under `go test -race -cpu 1,4` — the whole point is proving the
// isolation, shedding and degradation paths are correct under concurrency,
// not just on the happy path.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// hooked sets m's hook, which runs before every per-(path, vertex) load — a
// NeighborVector or a visibility walk — and may panic, stall, cancel a
// context, or trip a synthetic deadline: the injection point for every
// pipeline stage, since all of them load through it. Views inherit the hook,
// so ServePool workers, batch workers and ranges all inherit the faults.
func hooked(m *Materializer, hook func(p metapath.Path, v hin.VertexID)) *Materializer {
	m.hook = hook
	return m
}

// deadlineAfterCtx reports context.DeadlineExceeded after a fixed number of
// Err polls, so tests expire a "deadline" at an exact per-vertex check
// instead of a wall-clock instant — the degradation prefix becomes
// deterministic and the partial result comparable entry for entry.
type deadlineAfterCtx struct {
	context.Context
	remaining atomic.Int64
	err       error
}

func newDeadlineAfter(polls int64) *deadlineAfterCtx {
	c := &deadlineAfterCtx{Context: context.Background(), err: context.DeadlineExceeded}
	c.remaining.Store(polls)
	return c
}

// newCancelAfter is newDeadlineAfter reporting context.Canceled.
func newCancelAfter(polls int64) *deadlineAfterCtx {
	c := newDeadlineAfter(polls)
	c.err = context.Canceled
	return c
}

func (c *deadlineAfterCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return c.err
	}
	return nil
}

const faultQuery = `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`

// setPolls is what the reference side of faultQuery costs a baseline engine
// whose crossover the candidates reach (eagerBaseline) in context polls: one
// propagation, polled before each of its two hops. The candidates still load
// one by one after it, a poll each. Under the default crossover a test graph's
// Sr = Sc loads per vertex instead, and a deadline there fails the query.
const setPolls = 2

// faultRefQuery is faultQuery against an explicit reference set that is not
// the candidate set (every test graph has at least five authors), so on
// every materializer the faultRefs reference loads are followed by one load
// per candidate. Fault placement by load count goes through it: under
// faultQuery and the default crossover the single pass over Sr = Sc is the
// reference pass and no candidate is loaded afterwards.
const (
	faultRefQuery = `FIND OUTLIERS FROM author COMPARED TO author{"A0", "A1", "A2"} JUDGED BY author.paper.venue;`
	faultRefs     = 3
)

// fireOnce returns a hook that panics with msg on exactly the first load.
func fireOnce(msg string) func(metapath.Path, hin.VertexID) {
	var fired atomic.Bool
	return func(metapath.Path, hin.VertexID) {
		if fired.CompareAndSwap(false, true) {
			panic(msg)
		}
	}
}

// The seed's ServePool worker had no recover: a panicking query killed the
// worker goroutine (crashing the process) and never wrote job.done, so on a
// background context the caller hung forever. This test hangs/crashes
// pre-fix; post-fix the caller gets a *PanicError, the pool keeps its full
// capacity, and the engine's series record the panic once.
func TestServePoolWorkerPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := randomBibGraph(rand.New(rand.NewSource(7)))
			fm := hooked(NewBaseline(g), fireOnce("injected serve fault"))
			reg := obs.NewRegistry()
			defer noGoroutineLeak(t, runtime.NumGoroutine())
			pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg)), ServeOptions{Workers: workers})
			defer pool.Close()

			done := make(chan struct{})
			var res *Result
			var execErr error
			go func() {
				res, execErr = pool.Execute(context.Background(), faultQuery)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Execute hung: the worker panic stranded its caller")
			}
			if !IsPanicError(execErr) {
				t.Fatalf("err = %v, want a *PanicError", execErr)
			}
			var pe *PanicError
			if errors.As(execErr, &pe); pe.Stack == "" || pe.Value != "injected serve fault" {
				t.Fatalf("PanicError not captured faithfully: %+v", pe)
			}
			if res != nil {
				t.Fatalf("res = %+v, want nil alongside a panic error", res)
			}

			// Capacity intact: the hook fired once, so 2×workers concurrent
			// queries must all succeed on the surviving workers.
			errCh := make(chan error, 2*workers)
			for i := 0; i < 2*workers; i++ {
				go func() {
					_, err := pool.Execute(context.Background(), faultQuery)
					errCh <- err
				}()
			}
			for i := 0; i < 2*workers; i++ {
				if err := <-errCh; err != nil {
					t.Fatalf("post-panic query %d: %v", i, err)
				}
			}
			m := metricsOf(t, reg)
			if m[`netout_queries_total{outcome="ok"}`] != float64(2*workers) || m[`netout_queries_total{outcome="internal"}`] != 1 || m["netout_query_panics_total"] != 1 {
				t.Fatalf("ok %v / internal %v / panics %v, want %d / 1 / 1",
					m[`netout_queries_total{outcome="ok"}`], m[`netout_queries_total{outcome="internal"}`], m["netout_query_panics_total"], 2*workers)
			}
		})
	}
}

// Admission control: with MaxQueue=1 and the single worker stalled, one
// extra query queues and the next is shed with ErrOverloaded instead of
// blocking unboundedly. The shed query never reaches the engine, which
// counts the other two.
func TestServePoolOverloadSheds(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(9)))
	gate := make(chan struct{})
	var entered atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		entered.Add(1)
		<-gate // stall every load until the gate opens
	})
	reg := obs.NewRegistry()
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg)), ServeOptions{Workers: 1, MaxQueue: 1})
	defer pool.Close()

	first := make(chan error, 1)
	go func() {
		_, err := pool.Execute(context.Background(), faultQuery)
		first <- err
	}()
	// Wait for the worker to be stalled inside the first query, so the
	// queue slot is demonstrably free for exactly one of the next two.
	for deadline := time.Now().Add(5 * time.Second); entered.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the stalled load")
		}
		time.Sleep(time.Millisecond)
	}
	contested := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := pool.Execute(context.Background(), faultQuery)
			contested <- err
		}()
	}
	// With the worker stalled, exactly one contender buffers and the other
	// must be shed immediately; only the shed one can report before the
	// gate opens.
	select {
	case err := <-contested:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("contended Execute: %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no query was shed: admission control is not bounding the queue")
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("stalled query: %v", err)
	}
	if err := <-contested; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	if m := metricsOf(t, reg); m[`netout_queries_total{outcome="ok"}`] != 2 || m["netout_query_seconds_count"] != 2 {
		t.Fatalf("engine counted %v ok of %v queries, want 2 of 2", m[`netout_queries_total{outcome="ok"}`], m["netout_query_seconds_count"])
	}
}

// DefaultTimeout + graceful degradation end to end: a stalled load outlives
// the pool's default deadline, and the caller still receives a Partial=true
// result whose entries match the unconstrained run exactly (NetOut scores
// are separable, so every scored candidate's value is final).
func TestServePoolDefaultTimeoutPartial(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(11)))
	full, err := NewEngine(g).Execute(faultRefQuery)
	if err != nil {
		t.Fatal(err)
	}
	fullScore := map[hin.VertexID]float64{}
	for _, e := range full.Entries {
		fullScore[e.Vertex] = e.Score
	}

	// Load 1..faultRefs is the reference side, the next load the first
	// candidate; stalling the one after past the deadline leaves a non-empty
	// candidate prefix, which the engine turns into the partial result
	// Execute returns.
	var loads atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if loads.Add(1) == faultRefs+2 {
			time.Sleep(300 * time.Millisecond)
		}
	})
	reg := obs.NewRegistry()
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	pool := NewServePool(NewEngine(g, WithMaterializer(fm), WithObs(reg)), ServeOptions{
		Workers: 1, DefaultTimeout: 60 * time.Millisecond,
	})
	defer pool.Close()

	res, err := pool.Execute(context.Background(), faultRefQuery)
	if err != nil {
		t.Fatalf("Execute: %v, want a degraded partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true after the deadline expired mid-query")
	}
	if len(res.Entries) == 0 {
		t.Fatal("partial result has no entries")
	}
	for _, e := range res.Entries {
		want, ok := fullScore[e.Vertex]
		if !ok {
			t.Fatalf("partial entry %s not in the full ranking", e.Name)
		}
		if e.Score != want {
			t.Fatalf("partial score for %s = %v, want the full run's %v", e.Name, e.Score, want)
		}
	}
	m := metricsOf(t, reg)
	if m[`netout_queries_total{outcome="ok"}`] != 1 || m["netout_query_partial_total"] != 1 || m["netout_query_seconds_count"] != 1 {
		t.Fatalf("ok %v / partial %v of %v queries, want 1 / 1 of 1 (a partial is an answer, not a timeout)",
			m[`netout_queries_total{outcome="ok"}`], m["netout_query_partial_total"], m["netout_query_seconds_count"])
	}
}

// Sequential-path degradation is exact prefix arithmetic: expiring the
// synthetic deadline at candidate check K must return precisely the full
// run's entries and skip list restricted to the first K candidates, scores
// bit-identical.
func TestSequentialDeadlinePartialPrefix(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(3)))
	full, err := NewEngine(g).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := NewEngine(g).CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	nA := len(cands)
	K := nA / 2
	if K < 1 {
		t.Fatalf("graph too small: %d candidates", nA)
	}
	// Poll budget: 1 at query start, setPolls across the reference
	// propagation, then K candidate checks — check K+1 (0-indexed candidate K)
	// trips the deadline, so exactly K candidates were materialized.
	ctx := newDeadlineAfter(int64(1 + setPolls + K))
	res, err := NewEngine(g, WithMaterializer(eagerBaseline(g))).ExecuteContext(ctx, faultQuery)
	if err != nil {
		t.Fatalf("ExecuteContext: %v, want a degraded partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true")
	}
	if res.CandidateCount != nA {
		t.Fatalf("CandidateCount = %d, want the full |Sc| %d", res.CandidateCount, nA)
	}
	inPrefix := map[hin.VertexID]bool{}
	for _, v := range cands[:K] {
		inPrefix[v] = true
	}
	var wantEntries []Entry
	for _, e := range full.Entries {
		if inPrefix[e.Vertex] {
			wantEntries = append(wantEntries, e)
		}
	}
	var wantSkipped []hin.VertexID
	for _, v := range full.Skipped {
		if inPrefix[v] {
			wantSkipped = append(wantSkipped, v)
		}
	}
	if len(res.Entries) != len(wantEntries) {
		t.Fatalf("partial entries = %d, want %d (prefix K=%d)", len(res.Entries), len(wantEntries), K)
	}
	for i := range wantEntries {
		if res.Entries[i].Vertex != wantEntries[i].Vertex || res.Entries[i].Score != wantEntries[i].Score {
			t.Fatalf("entry %d = %+v, want %+v (bit-identical prefix arithmetic)", i, res.Entries[i], wantEntries[i])
		}
	}
	if len(res.Skipped) != len(wantSkipped) {
		t.Fatalf("partial skipped = %v, want %v", res.Skipped, wantSkipped)
	}
	for i := range wantSkipped {
		if res.Skipped[i] != wantSkipped[i] {
			t.Fatalf("skipped[%d] = %v, want %v", i, res.Skipped[i], wantSkipped[i])
		}
	}
}

// A cancelled context must NOT degrade: the caller is gone, and converting
// cancellation into a partial answer would break the pipeline cancellation
// contract.
func TestSequentialCancellationDoesNotDegrade(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	var loads atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if loads.Add(1) == faultRefs+2 { // mid-candidate-phase, where degradation COULD apply
			cancel()
		}
	})
	res, err := NewEngine(g, WithMaterializer(fm)).ExecuteContext(ctx, faultRefQuery)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// The reference side never degrades, on either branch and in every executor:
// without it no candidate has a score. A propagation interrupted between its
// hops fails the query with the context's error — cancelled or expired —
// and so does a deadline inside the single pass that loads Sr = Sc on a
// stateful materializer, because that pass IS the reference pass. Once that
// pass completes nothing is left to load, so a deadline that used to strike
// the second pass (Partial at the parent commit) now finds a complete answer.
func TestReferenceSideFailsWhole(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(5)))
	full, err := NewEngine(g).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	nA := full.CandidateCount
	for _, ex := range []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithQueryParallelism(1)}},
		{"pipeline", []Option{WithQueryParallelism(4)}},
		// Remote shards stand where the in-process ones did: the reference
		// side reduces on the coordinator either way.
		{"remote", []Option{WithRemoteShards(newFakeFleet(t, g, 2)...)}},
	} {
		t.Run(ex.name, func(t *testing.T) {
			eng := NewEngine(g, ex.opts...)
			defer eng.Close()
			// Polls: query start, before hop 0, before hop 1 (which fails).
			for _, ctx := range []*deadlineAfterCtx{newCancelAfter(2), newDeadlineAfter(2)} {
				if res, err := eng.ExecuteContext(ctx, faultQuery); !errors.Is(err, ctx.err) || res != nil {
					t.Fatalf("mid-propagation %v: got (%v, %v), want the bare error", ctx.err, res, err)
				}
			}
			if ex.name == "remote" {
				return // remote execution never reuses the reference pass
			}
			mat, err := NewCached(g, 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			reuse := NewEngine(g, append(ex.opts, WithMaterializer(mat))...)
			res, err := reuse.ExecuteContext(newDeadlineAfter(int64(1+nA/2)), faultQuery)
			if !errors.Is(err, context.DeadlineExceeded) || xerr.CodeOf(err) != xerr.DeadlineExceeded || res != nil {
				t.Fatalf("deadline inside the reuse pass: got (%v, %v), want DEADLINE_EXCEEDED", res, err)
			}
			res, err = reuse.ExecuteContext(newDeadlineAfter(int64(1+nA)), faultQuery)
			if err != nil || res.Partial || !resultsEqual(res, full) {
				t.Fatalf("deadline after the reuse pass: err=%v, want the complete answer", err)
			}
		})
	}
}

// Pipeline degradation: with 4 workers over >128 candidates, an expired
// deadline mid-candidate-phase yields a partial result covering exactly the
// completed chunks, every score bit-identical to the full run.
func TestPipelineDeadlinePartial(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(11)))
	full, err := NewEngine(g, WithQueryParallelism(4)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	fullScore := map[hin.VertexID]float64{}
	for _, e := range full.Entries {
		fullScore[e.Vertex] = e.Score
	}
	fullSkipped := map[hin.VertexID]bool{}
	for _, v := range full.Skipped {
		fullSkipped[v] = true
	}
	cands, err := NewEngine(g).CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	nA := len(cands)
	reg := obs.NewRegistry()
	eng := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(4), WithObs(reg))
	// Poll budget: 1 at query start + setPolls across the reference
	// propagation + nA-1 candidate checks. Exactly one candidate poll (the chronologically last of the nA
	// issued) trips the deadline, so exactly one chunk fails and every other
	// chunk is deterministically complete — for any worker schedule. With
	// 280+ candidates and parallelChunk=128 there are ≥3 chunks, so the
	// partial result is a non-empty strict subset.
	ctx := newDeadlineAfter(int64(1 + setPolls + nA - 1))
	res, err := eng.ExecuteContext(ctx, faultQuery)
	if err != nil {
		t.Fatalf("ExecuteContext: %v, want a degraded partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true")
	}
	covered := len(res.Entries) + len(res.Skipped)
	if covered == 0 || covered >= nA {
		t.Fatalf("partial covers %d of %d candidates, want a strict non-empty prefix subset", covered, nA)
	}
	for _, e := range res.Entries {
		want, ok := fullScore[e.Vertex]
		if !ok || e.Score != want {
			t.Fatalf("partial entry %s score %v, want full run's %v (present %v)", e.Name, e.Score, want, ok)
		}
	}
	for _, v := range res.Skipped {
		if !fullSkipped[v] {
			t.Fatalf("partial skipped %v not skipped in the full run", v)
		}
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "netout_query_partial_total 1") {
		t.Fatalf("scrape missing partial counter:\n%s", sb.String())
	}
	// The engine is reusable after degradation.
	again, err := eng.Execute(faultQuery)
	if err != nil || !resultsEqual(again, full) {
		t.Fatalf("post-degradation query: err=%v, equal=%v", err, err == nil && resultsEqual(again, full))
	}
}

// Panic isolation inside query execution: a panicking load becomes a
// *PanicError for both the sequential path (parallelism 1) and the chunked
// pipeline (parallelism 4, where the panic starts on a worker goroutine),
// and the engine keeps answering afterwards.
func TestQueryPanicIsolation(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			g := bigBibGraph(rand.New(rand.NewSource(13)))
			fm := hooked(NewBaseline(g), fireOnce("injected query fault"))
			reg := obs.NewRegistry()
			eng := NewEngine(g, WithMaterializer(fm), WithQueryParallelism(par), WithObs(reg))
			res, err := eng.Execute(faultQuery)
			if !IsPanicError(err) || res != nil {
				t.Fatalf("got (%v, %v), want (nil, *PanicError)", res, err)
			}
			var sb strings.Builder
			reg.WritePrometheus(&sb)
			if !strings.Contains(sb.String(), "netout_query_panics_total 1") {
				t.Fatalf("scrape missing query panic counter:\n%s", sb.String())
			}
			// Disarmed (fireOnce), the engine answers and matches a clean one.
			want, err := NewEngine(g, WithQueryParallelism(par)).Execute(faultQuery)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Execute(faultQuery)
			if err != nil || !resultsEqual(got, want) {
				t.Fatalf("post-panic query: err=%v, matches clean engine=%v", err, err == nil && resultsEqual(got, want))
			}
		})
	}
}

// Batch cancellation: cancelling BatchOptions.Context stops dispatch,
// aborts in-flight queries at per-vertex granularity, and marks
// undispatched entries — nothing hangs and every entry is accounted for.
func TestBatchCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := randomBibGraph(rand.New(rand.NewSource(17)))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var loads atomic.Int64
			fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
				if loads.Add(1) == 3 { // no query can have finished yet
					cancel()
				}
			})
			queries := make([]string, 6)
			for i := range queries {
				queries[i] = faultQuery
			}
			results := ExecuteBatch(NewEngine(g, WithMaterializer(fm)), queries, BatchOptions{
				Workers: workers, Context: ctx,
			})
			if len(results) != len(queries) {
				t.Fatalf("got %d results, want %d", len(results), len(queries))
			}
			for i, br := range results {
				if !errors.Is(br.Err, context.Canceled) {
					t.Fatalf("entry %d: err = %v, want context.Canceled (cancel fired before any query could finish)", i, br.Err)
				}
			}
		})
	}
}

// Batch panic isolation: one poisoned query yields one *PanicError entry;
// the worker survives and every other query in the batch still succeeds.
func TestBatchPanicEntry(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := randomBibGraph(rand.New(rand.NewSource(19)))
			fm := hooked(NewBaseline(g), fireOnce("injected batch fault"))
			queries := make([]string, 6)
			for i := range queries {
				queries[i] = faultQuery
			}
			results := ExecuteBatch(NewEngine(g, WithMaterializer(fm)), queries, BatchOptions{Workers: workers})
			panics := 0
			for i, br := range results {
				switch {
				case IsPanicError(br.Err):
					panics++
				case br.Err != nil:
					t.Fatalf("entry %d: unexpected error %v", i, br.Err)
				case br.Result == nil || len(br.Result.Entries) == 0:
					t.Fatalf("entry %d: empty result", i)
				}
			}
			if panics != 1 {
				t.Fatalf("got %d panic entries, want exactly 1", panics)
			}
		})
	}
}

// Progressive execution: cancellation aborts, and an expired deadline after
// at least one snapshot degrades to exactly the last chunk boundary's
// estimates, bit-identical to an OnSnapshot-stopped control run.
func TestProgressiveCancelAndDeadlinePartial(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(23)))
	eng := NewEngine(g)
	popts := ProgressiveOptions{ChunkSize: 2}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.ExecuteProgressiveContext(cancelled, faultQuery, popts); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled: got (%v, %v), want (nil, context.Canceled)", res, err)
	}

	cands, err := eng.CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	nA := len(cands)
	if nA < 7 {
		t.Fatalf("graph too small: %d refs", nA)
	}
	// Poll budget: nA candidate-materialization checks, then one check per
	// reference vertex; 5 more polls fail at reference index 5, i.e. inside
	// the third chunk of size 2 — the last sealed snapshot is processed=4.
	ctx := newDeadlineAfter(int64(nA + 5))
	res, err := eng.ExecuteProgressiveContext(ctx, faultQuery, popts)
	if err != nil {
		t.Fatalf("deadline: %v, want a degraded partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true")
	}

	// Control: same chunking stopped via OnSnapshot at the same boundary.
	control, err := eng.ExecuteProgressive(faultQuery, ProgressiveOptions{
		ChunkSize:  2,
		OnSnapshot: func(s ProgressiveSnapshot) bool { return s.ProcessedRefs < 4 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !control.Partial {
		t.Fatal("control.Partial = false, want true for an OnSnapshot early stop")
	}
	if len(res.Entries) != len(control.Entries) {
		t.Fatalf("degraded entries = %d, control = %d", len(res.Entries), len(control.Entries))
	}
	for i := range control.Entries {
		if res.Entries[i].Vertex != control.Entries[i].Vertex || res.Entries[i].Score != control.Entries[i].Score {
			t.Fatalf("entry %d = %+v, want control's %+v", i, res.Entries[i], control.Entries[i])
		}
	}

	// A full progressive run is exact and not partial.
	fullProg, err := eng.ExecuteProgressive(faultQuery, ProgressiveOptions{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fullProg.Partial {
		t.Fatal("full progressive run marked Partial")
	}
}

// Materializer metric registration is idempotent per (registry,
// materializer): a ServePool and repeated ExecuteBatch invocations sharing
// one registry — the cmd/netout wiring — register the collectors once, and
// the scrape stays single-valued and live.
func TestRegisterMaterializerMetricsIdempotent(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(31)))
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := NewEngine(g, WithMaterializer(mat), WithObs(reg))
	for i := 0; i < 2; i++ { // the call-twice regression for ExecuteBatch
		ExecuteBatch(eng, []string{faultQuery}, BatchOptions{Workers: 2})
	}
	before := runtime.NumGoroutine()
	pool := NewServePool(eng, ServeOptions{Workers: 2})
	if _, err := pool.Execute(context.Background(), faultQuery); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	noGoroutineLeak(t, before)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	scrape := sb.String()
	for _, family := range []string{"netout_index_bytes", "netout_cache_hits_total"} {
		samples := 0
		for _, line := range strings.Split(scrape, "\n") {
			if strings.HasPrefix(line, family+" ") {
				samples++
			}
		}
		if samples != 1 {
			t.Fatalf("%s has %d sample lines, want 1:\n%s", family, samples, scrape)
		}
	}
	// The surviving collector still reads the live shared counters.
	cs, ok := CacheStatsOf(mat)
	if !ok || cs.Hits == 0 {
		t.Fatalf("cache stats not live: %+v (ok=%v)", cs, ok)
	}
	if !strings.Contains(scrape, fmt.Sprintf("netout_cache_hits_total %d", cs.Hits)) {
		t.Fatalf("scrape does not match live CacheStats (%d hits):\n%s", cs.Hits, scrape)
	}
}

// ---------------------------------------------------------------------------
// Range faults. These ran on the in-process shard tier until it became
// WithQueryParallelism; they prove the same isolation on local ranges, over
// bigBibGraph (three chunks, so three ranges).

// rangeFaultFixture is bigBibGraph with the full run of src on it, as score
// and skip lookups.
func rangeFaultFixture(t *testing.T, seed int64, src string) (g *hin.Graph, nA int, score map[hin.VertexID]float64) {
	t.Helper()
	g = bigBibGraph(rand.New(rand.NewSource(seed)))
	full, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	score = map[hin.VertexID]float64{}
	for _, e := range full.Entries {
		score[e.Vertex] = e.Score
	}
	return g, full.CandidateCount, score
}

// One panicking range must be isolated: the other ranges' exact results are
// merged into a Partial result with per-range accounting, instead of the
// panic failing the query whole or killing the process. The hook counter
// skips the faultRefs reference loads, so the panic fires inside exactly one
// range's scoring loop. (The shard tier reloaded Sr = Sc per shard and the
// fault was placed nA loads in; ranges score the vectors the reference pass
// holds and load nothing, hence the explicit reference set.)
func TestShardPanicIsolatesToPartial(t *testing.T) {
	g, _, fullScore := rangeFaultFixture(t, 9, faultRefQuery)
	var loads atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if loads.Add(1) == faultRefs+2 {
			panic("injected shard fault")
		}
	})
	eng := NewEngine(g, WithMaterializer(fm), WithQueryParallelism(3))
	defer eng.Close()
	res, err := eng.Execute(faultRefQuery)
	if err != nil {
		t.Fatalf("Execute: %v, want the panic degraded to a partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true")
	}
	if len(res.Shards) != 3 {
		t.Fatalf("len(res.Shards) = %d, want 3", len(res.Shards))
	}
	panicked := 0
	for _, st := range res.Shards {
		if st.Partial {
			panicked++
			if !strings.Contains(st.Err, "injected shard fault") {
				t.Errorf("shard %d error %q does not carry the panic value", st.Shard, st.Err)
			}
			continue
		}
		if st.Done != st.Candidates || st.Err != "" {
			t.Errorf("healthy shard %d incomplete: %+v", st.Shard, st)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d shards marked partial, want exactly 1: %+v", panicked, res.Shards)
	}
	// Every surviving entry is exact: bit-identical to the full run's score
	// for the same vertex.
	for _, e := range res.Entries {
		want, ok := fullScore[e.Vertex]
		if !ok || math.Float64bits(want) != math.Float64bits(e.Score) {
			t.Fatalf("partial score for %s = %v, want the full run's %v", e.Name, e.Score, want)
		}
	}
}

// Regression: a panic recovered inside a range is a recovered panic whether
// it failed the query or the range degraded. The parent counted only
// IsPanicError(err) on the query's own error, so the scenario above — local
// ranges or a fleet whose shard panics — left netout_query_panics_total at 0.
// The wide event names the panic on the struck range.
func TestDegradedRangePanicIsCounted(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(9)))
	panicAt := func(n int64) *Materializer {
		var loads atomic.Int64
		return hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
			if loads.Add(1) == n {
				panic("injected range fault")
			}
		})
	}
	shards := 0
	for name, opts := range map[string][]Option{
		"local": {WithMaterializer(panicAt(faultRefs + 2)), WithQueryParallelism(3)},
		// The second shard of two panics on its second candidate.
		"remote": {WithRemoteShards(fakeFleetOf(g, 2, func(g *hin.Graph) *Materializer {
			if shards++; shards == 2 {
				return panicAt(2)
			}
			return NewBaseline(g)
		})...)},
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ring := obs.NewEventRing(2)
			res, err := NewEngine(g, append(opts, WithObs(reg), WithEventSink(ring))...).Execute(faultRefQuery)
			if err != nil || !res.Partial {
				t.Fatalf("got (partial=%v, %v), want the panic degraded to a partial result", res != nil && res.Partial, err)
			}
			var sb strings.Builder
			reg.WritePrometheus(&sb)
			if !strings.Contains(sb.String(), "netout_query_panics_total 1") {
				t.Fatalf("scrape does not count the degraded range's panic:\n%s", sb.String())
			}
			named := 0
			for _, sh := range ring.Snapshot()[0].Shards {
				if strings.Contains(sh.Err, "panic") {
					named++
				}
			}
			if named != 1 {
				t.Fatalf("event names the panic on %d ranges, want 1: %+v", named, ring.Snapshot()[0].Shards)
			}
		})
	}
}

// A panic in a visibility walk, the one load of a scan scored from its
// numerators, degrades like a panicking vector load. On an eager baseline whose
// norm table knows the first half of the authors (an anchored query scored
// them), faultQuery reads its numerators (numer=walk) and walks the norms it
// lacks; the third walk in the last of three ranges panics. That range
// contributes nothing, and every other entry is the unfaulted run's bit for
// bit.
func TestVisibilityPanicDegradesToPartial(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(9)))
	mat := eagerBaseline(g)
	ring := obs.NewEventRing(1)
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(3), WithEventSink(ring))
	cands, err := eng.CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	half := `FIND OUTLIERS FROM author` + quoted(g, cands[:len(cands)/2]) + ` JUDGED BY author.paper.venue;`
	if _, err := eng.Execute(half); err != nil {
		t.Fatal(err)
	}
	ranges := hin.PartitionVertices(cands, 3)
	var walks atomic.Int64
	mat.hook = func(_ metapath.Path, v hin.VertexID) {
		if v >= ranges[2][0] && walks.Add(1) == 3 {
			panic("injected visibility fault")
		}
	}
	expectPrefixPartial(t, g, eng, 2)
	if plan := ring.Snapshot()[0].Plan; !slices.ContainsFunc(plan, func(line string) bool { return strings.HasSuffix(line, ": numer=walk") }) {
		t.Fatalf("plan %q, want the scan scored from its numerators", plan)
	}
}

// A deadline that expires among the ranges degrades to a merged partial: the
// poll budget admits the reference reduction plus exactly K candidate checks
// across the ranges, so K candidates total are scored (exact, bit-identical
// to the full run) and the rest are accounted as not done.
func TestShardDeadlineDegradesToMergedPartial(t *testing.T) {
	g, nA, fullScore := rangeFaultFixture(t, 13, faultQuery)
	K := nA / 2
	eng := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(3))
	defer eng.Close()
	// Poll budget mirrors TestSequentialDeadlinePartialPrefix: 1 at query
	// start, setPolls across the reference propagation, then K candidate
	// checks shared by the ranges.
	ctx := newDeadlineAfter(int64(1 + setPolls + K))
	res, err := eng.ExecuteContext(ctx, faultQuery)
	if err != nil {
		t.Fatalf("ExecuteContext: %v, want a degraded partial result", err)
	}
	if !res.Partial {
		t.Fatal("res.Partial = false, want true")
	}
	expired, totalDone := 0, 0
	for _, st := range res.Shards {
		totalDone += st.Done
		if st.Partial {
			expired++
			if !strings.Contains(st.Err, "deadline") {
				t.Errorf("shard %d error %q, want a deadline classification", st.Shard, st.Err)
			}
		}
	}
	if expired == 0 {
		t.Fatalf("no shard marked partial: %+v", res.Shards)
	}
	if totalDone != K {
		t.Fatalf("shards scored %d candidates total, want exactly the %d-poll budget", totalDone, K)
	}
	for _, e := range res.Entries {
		want, ok := fullScore[e.Vertex]
		if !ok || math.Float64bits(want) != math.Float64bits(e.Score) {
			t.Fatalf("partial score for %s = %v, want the full run's %v", e.Name, e.Score, want)
		}
	}

	// Every measure degrades the same way: once the reference side is reduced,
	// a candidate's PathSim score depends only on its own Φ and that
	// reduction, so an expiry K candidates past PathSim's per-vertex
	// reduction (a poll per reference) leaves an exact prefix, bit-identical
	// to the full run's. The reference set is explicit because ranges, unlike
	// the shards this ran on, score Sr = Sc out of the reference pass and
	// would never poll again.
	psEng := NewEngine(g, WithMeasure(MeasurePathSim), WithQueryParallelism(3))
	defer psEng.Close()
	full, err := psEng.Execute(faultRefQuery)
	if err != nil {
		t.Fatal(err)
	}
	psScore := map[hin.VertexID]uint64{}
	for _, e := range full.Entries {
		psScore[e.Vertex] = math.Float64bits(e.Score)
	}
	res, err = psEng.ExecuteContext(newDeadlineAfter(int64(1+faultRefs+K)), faultRefQuery)
	if err != nil || !res.Partial || len(res.Entries) == 0 || len(res.Entries) >= len(full.Entries) {
		t.Fatalf("PathSim ranged deadline: %v, want a partial prefix", err)
	}
	for _, e := range res.Entries {
		if bits, ok := psScore[e.Vertex]; !ok || bits != math.Float64bits(e.Score) {
			t.Fatalf("PathSim partial score for %s = %v, want the full run's bits", e.Name, e.Score)
		}
	}
}

// Regression: the chunk pipeline was the one executor without the empty-prefix
// rule — a deadline that expired after the reference side and before any chunk
// finished came back Partial=true with no entries, where the sequential path
// and the shard tier returned the error. Under the one rule it is
// DEADLINE_EXCEEDED, and the same budget plus one full chunk is still an
// exact-prefix Partial.
func TestRangesWithEmptyPrefixFailTheQuery(t *testing.T) {
	g, _, fullScore := rangeFaultFixture(t, 11, faultQuery)
	eng := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(4))
	res, err := eng.ExecuteContext(newDeadlineAfter(1+setPolls), faultQuery)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) || xerr.CodeOf(err) != xerr.DeadlineExceeded {
		t.Fatalf("deadline before any candidate: got (%+v, %v), want (nil, DEADLINE_EXCEEDED)", res, err)
	}
	res, err = eng.ExecuteContext(newDeadlineAfter(1+setPolls+parallelChunk), faultQuery)
	if err != nil || !res.Partial {
		t.Fatalf("deadline one chunk in: err=%v, want a Partial result", err)
	}
	if covered := len(res.Entries) + len(res.Skipped); covered != parallelChunk {
		t.Fatalf("partial covers %d candidates, want the %d-poll budget", covered, parallelChunk)
	}
	for _, e := range res.Entries {
		if want, ok := fullScore[e.Vertex]; !ok || math.Float64bits(want) != math.Float64bits(e.Score) {
			t.Fatalf("partial score for %s = %v, want the full run's %v", e.Name, e.Score, want)
		}
	}
}

// Close is a no-op now that no engine holds resident goroutines: before or
// after first use, a closed engine keeps answering, ranges included. (The
// half of this test that expected a *PanicError from a query after Close
// went with the resident shard goroutines it tested.)
func TestShardedEngineCloseSemantics(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(17)))
	want, err := NewEngine(g, WithQueryParallelism(1)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, WithQueryParallelism(3))
	for i := 0; i < 2; i++ {
		eng.Close()
		res, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatalf("Execute after Close #%d: %v", i+1, err)
		}
		if !bitIdentical(want, res) || len(res.Shards) != 3 {
			t.Fatalf("Execute after Close #%d: %d ranges, identical to inline = %v", i+1, len(res.Shards), bitIdentical(want, res))
		}
	}
}
