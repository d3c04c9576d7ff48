package core

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/oql"
)

func mustParse(t *testing.T, src string) *oql.Query {
	t.Helper()
	q, err := oql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExactlyOneEventPerQuery is the journal's core contract: every completed
// query — ok, parse failure, plan failure, recovered panic, deadline-degraded
// partial — produces exactly one wide event with the right outcome.
func TestExactlyOneEventPerQuery(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(41)))
	ring := obs.NewEventRing(16)
	reg := obs.NewRegistry()
	eng := NewEngine(g, WithObs(reg), WithEventSink(ring), WithInflight(obs.NewInflight()))

	emitted := 0
	expectOne := func(label, wantOutcome string, wantPartial bool) *obs.Event {
		t.Helper()
		emitted++
		evs := ring.Snapshot()
		if len(evs) != emitted {
			t.Fatalf("%s: journal has %d events, want %d (exactly one per query)", label, len(evs), emitted)
		}
		ev := evs[0] // most recent first
		if ev.Outcome != wantOutcome || ev.Partial != wantPartial {
			t.Fatalf("%s: outcome=%q partial=%v, want %q/%v (err=%q)", label, ev.Outcome, ev.Partial, wantOutcome, wantPartial, ev.Error)
		}
		if wantOutcome != "ok" && ev.Error == "" {
			t.Fatalf("%s: failure event carries no error text", label)
		}
		return ev
	}

	// ok
	if _, err := eng.Execute(faultQuery); err != nil {
		t.Fatal(err)
	}
	ev := expectOne("ok", "ok", false)
	// Parsed queries journal their canonical String() form.
	if ev.Query != mustParse(t, faultQuery).String() || ev.Entries == 0 || ev.TopScore == nil {
		t.Fatalf("ok event incomplete: %+v", ev)
	}

	// parse failure (never reaches executeQuery)
	if _, err := eng.Execute("THIS IS NOT OQL;"); err == nil {
		t.Fatal("parse should fail")
	}
	ev = expectOne("parse", "invalid", false)
	if ev.Query != "THIS IS NOT OQL;" {
		t.Fatalf("parse event lost the raw source: %q", ev.Query)
	}
	if len(ev.Phases) != 1 || ev.Phases[0].Phase != "parse" {
		t.Fatalf("parse event phases = %+v, want a lone parse span", ev.Phases)
	}

	// plan failure (unknown author dies in EvalSet)
	if _, err := eng.Execute(`FIND OUTLIERS FROM author{"No Such Author"} JUDGED BY author.paper.venue;`); err == nil {
		t.Fatal("plan should fail")
	}
	expectOne("plan", "not_found", false)

	// recovered panic
	fm := hooked(NewBaseline(g), fireOnce("journal panic probe"))
	engPanic := NewEngine(g, WithMaterializer(fm), WithEventSink(ring))
	if _, err := engPanic.Execute(faultQuery); !IsPanicError(err) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	ev = expectOne("panic", "internal", false)
	if !strings.Contains(ev.Error, "journal panic probe") {
		t.Fatalf("panic event error = %q", ev.Error)
	}

	// deadline-degraded partial (err == nil, Partial == true)
	cands, err := eng.CandidateSet(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	nA := len(cands)
	// A fresh baseline whose crossover Sr = Sc reaches: a propagation, then a
	// poll per candidate (setPolls).
	cold := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithObs(reg), WithEventSink(ring))
	res, err := cold.ExecuteContext(newDeadlineAfter(int64(1+setPolls+nA/2)), faultQuery)
	if err != nil || !res.Partial {
		t.Fatalf("degradation setup: err=%v partial=%v", err, res != nil && res.Partial)
	}
	ev = expectOne("partial", "ok", true)
	if ev.Candidates != nA {
		t.Fatalf("partial event candidates = %d, want full |Sc| %d", ev.Candidates, nA)
	}

	// The pre-parsed entry point journals too.
	if _, err := eng.ExecuteQuery(mustParse(t, faultQuery)); err != nil {
		t.Fatal(err)
	}
	expectOne("pre-parsed", "ok", false)

	// One observation per finished query too: the registry's latency histogram
	// counts all five of eng's queries, the parse failure among them, and each
	// failure under its own outcome.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{"netout_query_seconds_count 5", `netout_queries_total{outcome="invalid"} 1`, `netout_queries_total{outcome="not_found"} 1`, `netout_query_phase_seconds_count{phase="parse"} 4`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("scrape is missing %q:\n%s", want, sb.String())
		}
	}
}

// TestEventAgreesWithTraceAndMetrics pins the three views of one query — the
// wide event, the Result's trace, and the /metrics scrape — to each other.
func TestEventAgreesWithTraceAndMetrics(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(43)))
	ring := obs.NewEventRing(8)
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(4)
	eng := NewEngine(g, WithObs(reg), WithEventSink(obs.CombineSinks(ring, slow)))

	ctx := obs.WithRequestID(context.Background(), "rid-evt")
	sc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), ParentSpanID: obs.NewSpanID()}
	ctx = obs.WithSpanContext(ctx, sc)
	ctx = obs.WithQueueWait(ctx, 5*time.Millisecond)
	res, err := eng.ExecuteContext(ctx, faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	ev := ring.Snapshot()[0]

	// Identity propagated from the context.
	if ev.RequestID != "rid-evt" || ev.TraceID != sc.TraceID || ev.SpanID != sc.SpanID || ev.ParentSpanID != sc.ParentSpanID {
		t.Fatalf("event identity = %+v, want ctx's rid/span context", ev)
	}
	if res.Trace.TraceID != sc.TraceID || res.Trace.RequestID != "rid-evt" {
		t.Fatalf("trace identity = rid %q trace %q", res.Trace.RequestID, res.Trace.TraceID)
	}
	if ev.QueueWaitUs != (5 * time.Millisecond).Microseconds() {
		t.Fatalf("QueueWaitUs = %d, want 5000", ev.QueueWaitUs)
	}

	// Durations and counters are read from the same sealed trace.
	if ev.TotalUs != res.Trace.Total.Microseconds() {
		t.Fatalf("event total %dus != trace total %v", ev.TotalUs, res.Trace.Total)
	}
	if len(ev.Phases) != len(res.Trace.Spans) {
		t.Fatalf("event has %d phases, trace has %d spans", len(ev.Phases), len(res.Trace.Spans))
	}
	for i, s := range res.Trace.Spans {
		p := ev.Phases[i]
		if p.Phase != s.Phase || p.DurationUs != s.Duration.Microseconds() ||
			p.TraversedVectors != s.Stats.TraversedVectors || p.IndexedVectors != s.Stats.IndexedVectors {
			t.Fatalf("phase %d: event %+v vs span %+v", i, p, s)
		}
	}

	// Result-shaped fields.
	if ev.Candidates != res.CandidateCount || ev.References != res.ReferenceCount || ev.Entries != len(res.Entries) {
		t.Fatalf("event counts %d/%d/%d vs result %d/%d/%d",
			ev.Candidates, ev.References, ev.Entries,
			res.CandidateCount, res.ReferenceCount, len(res.Entries))
	}
	if ev.TopScore == nil || *ev.TopScore != res.Entries[0].Score {
		t.Fatalf("event top score = %v, want %v", ev.TopScore, res.Entries[0].Score)
	}
	if ev.Measure != eng.measure.String() || ev.Strategy != eng.mat.Strategy().String() || ev.Parallelism != eng.QueryParallelism() {
		t.Fatalf("event config = %s/%s/%d", ev.Measure, ev.Strategy, ev.Parallelism)
	}

	// The baseline materializer exposes kernel counters: per-hop work must be
	// attributed, and the traversed vectors agree with the trace.
	if len(ev.Kernels) == 0 {
		t.Fatalf("event has no kernel counts under the baseline materializer")
	}
	var kernelSum int64
	for _, n := range ev.Kernels {
		kernelSum += n
	}
	matSpan, _ := res.Trace.Span("materialize")
	// Every traversed vector takes at least one kernel hop (2-segment paths
	// take two), so the hop count bounds the vector count from above.
	if kernelSum < matSpan.Stats.TraversedVectors {
		t.Fatalf("kernel hops %d < traversed vectors %d", kernelSum, matSpan.Stats.TraversedVectors)
	}

	// /metrics deltas agree with the journal.
	srv := httptest.NewServer(obs.NewAdminMux(reg, slow, obs.WithEventRing(ring)))
	defer srv.Close()
	m := scrapeMetrics(t, srv.URL+"/metrics")
	if m[`netout_queries_total{outcome="ok"}`] != 1 || m["netout_query_seconds_count"] != 1 {
		t.Fatalf("metrics disagree with the single journaled query: %v", m)
	}
	if m["netout_vectors_traversed_total"] != float64(matSpan.Stats.TraversedVectors) {
		t.Fatalf("scraped traversed vectors %v != trace's %d",
			m["netout_vectors_traversed_total"], matSpan.Stats.TraversedVectors)
	}
}

// TestPipelineDeterminismWithJournal re-checks the pipeline's bit-identical
// contract with the journal and the inflight table attached: observability
// must never touch results.
func TestPipelineDeterminismWithJournal(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(47)))
	want, err := NewEngine(g, WithQueryParallelism(1)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ring := obs.NewEventRing(8)
		eng := NewEngine(g, WithQueryParallelism(par),
			WithEventSink(ring), WithInflight(obs.NewInflight()))
		got, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("parallelism %d: results diverge with the journal enabled", par)
		}
		evs := ring.Snapshot()
		if len(evs) != 1 || evs[0].Outcome != "ok" || evs[0].Parallelism != par {
			t.Fatalf("parallelism %d: journal = %+v", par, evs)
		}
	}
}

// TestInflightVisibleMidExecution blocks a query inside its materialize phase
// via fault injection and asserts the live inspector sees it: /debug/requests
// lists the query with its phase and identity, and the gauge reads 1.
func TestInflightVisibleMidExecution(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(53)))
	gate := make(chan struct{})
	var entered atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		if entered.Add(1) == 1 {
			<-gate // stall the first load until the inspector has looked
		}
	})
	tab := obs.NewInflight()
	reg := obs.NewRegistry()
	tab.RegisterMetrics(reg)
	eng := NewEngine(g, WithMaterializer(fm), WithInflight(tab), WithObs(reg))

	srv := httptest.NewServer(obs.NewAdminMux(reg, nil, obs.WithInflight(tab)))
	defer srv.Close()

	ctx := obs.WithRequestID(context.Background(), "rid-stuck")
	done := make(chan error, 1)
	go func() {
		_, err := eng.ExecuteContext(ctx, faultQuery)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); entered.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the stalled load")
		}
		time.Sleep(time.Millisecond)
	}

	// The stuck query is visible with its identity and phase.
	resp, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{"in-flight queries: 1", "rid=rid-stuck", "FIND OUTLIERS", "phase materialize"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/requests missing %q:\n%s", want, body)
		}
	}
	m := scrapeMetrics(t, srv.URL+"/metrics")
	if m["netout_inflight_queries"] != 1 {
		t.Fatalf("inflight gauge = %v, want 1", m["netout_inflight_queries"])
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Finished queries leave the table (and the gauge).
	if tab.Len() != 0 {
		t.Fatalf("table not drained after completion: %d", tab.Len())
	}
	resp, err = http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "none") {
		t.Fatalf("/debug/requests still lists queries:\n%s", body)
	}
}

// TestInflightChunkProgressUnderPipeline drives the parallel path with a
// chunked candidate phase and checks the record accumulates chunk progress.
func TestInflightChunkProgressUnderPipeline(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(59)))
	tab := obs.NewInflight()
	var maxTotal atomic.Int64
	fm := hooked(NewBaseline(g), func(metapath.Path, hin.VertexID) {
		for _, row := range tab.Snapshot() {
			if row.ChunksTotal > maxTotal.Load() {
				maxTotal.Store(row.ChunksTotal)
			}
		}
	})
	eng := NewEngine(g, WithMaterializer(fm), WithQueryParallelism(4), WithInflight(tab))
	if _, err := eng.Execute(faultQuery); err != nil {
		t.Fatal(err)
	}
	// bigBibGraph has >128 candidates, so the chunked phase announced >1 chunk.
	if maxTotal.Load() < 2 {
		t.Fatalf("chunk progress never announced multiple chunks (max total %d)", maxTotal.Load())
	}
}

// TestServePoolEmitsEventsWithQueueWait checks the serving integration: pool
// queries journal through the engine's sink with the queue wait attached,
// and the serve histograms appear in the scrape.
func TestServePoolEmitsEventsWithQueueWait(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(61)))
	ring := obs.NewEventRing(8)
	reg := obs.NewRegistry()
	tab := obs.NewInflight()
	pool := NewServePool(NewEngine(g, WithObs(reg), WithEventSink(ring), WithInflight(tab)),
		ServeOptions{Workers: 2})
	defer pool.Close()
	if err := pool.Ready(); err != nil {
		t.Fatalf("open pool not ready: %v", err)
	}
	for i := 0; i < 3; i++ {
		ctx := obs.WithRequestID(context.Background(), fmt.Sprintf("rid-%d", i))
		if _, err := pool.Execute(ctx, faultQuery); err != nil {
			t.Fatal(err)
		}
	}
	evs := ring.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("journal has %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Outcome != "ok" || !strings.HasPrefix(ev.RequestID, "rid-") {
			t.Fatalf("pool event = %+v", ev)
		}
		if ev.QueueWaitUs < 0 {
			t.Fatalf("negative queue wait %d", ev.QueueWaitUs)
		}
	}
	srv := httptest.NewServer(obs.NewAdminMux(reg, nil))
	defer srv.Close()
	m := scrapeMetrics(t, srv.URL+"/metrics")
	if m["netout_serve_queue_seconds_count"] != 3 || m["netout_serve_execute_seconds_count"] != 3 {
		t.Fatalf("serve histograms = queue %v / execute %v, want 3 observations each",
			m["netout_serve_queue_seconds_count"], m["netout_serve_execute_seconds_count"])
	}
	// Closing flips readiness while the process stays alive.
	pool.Close()
	if err := pool.Ready(); err == nil {
		t.Fatal("closed pool still reports ready")
	}
}

// The event's kernel counts are the query's hops wherever they ran. The
// parent read only the engine's own traverser, so a pipelined or sharded
// query journaled the reference side's two hops and dropped every hop a
// range's view expanded: on the same query, cold and warm, the totals of
// two and of three local ranges must equal the sequential engine's. (Remote
// shards have no wire field for them.)
func TestEventKernelsCountWorkerViews(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(47)))
	total := func(opts ...Option) []int64 {
		ring := obs.NewEventRing(4)
		eng := NewEngine(g, append(opts, WithMaterializer(eagerBaseline(g)), WithEventSink(ring))...)
		defer eng.Close()
		var sums []int64
		for run := 0; run < 2; run++ {
			if _, err := eng.Execute(faultQuery); err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, n := range ring.Snapshot()[0].Kernels {
				sum += n
			}
			sums = append(sums, sum)
		}
		return sums
	}
	want := total(WithQueryParallelism(1))
	if want[0] <= want[1] || want[1] == 0 {
		t.Fatalf("sequential kernel hops cold/warm = %v, want a cold walk per candidate and a warm pair of propagations", want)
	}
	if got := total(WithQueryParallelism(2)); !slices.Equal(got, want) {
		t.Fatalf("pipeline(2) kernel hops cold/warm = %v, want the sequential %v", got, want)
	}
	// The in-process shards this arm used to run propagated their numerators
	// per shard. Local ranges share one candidate side, so three of them
	// still propagate once: not a hop beyond the sequential engine's.
	if got := total(WithQueryParallelism(3)); !slices.Equal(got, want) {
		t.Fatalf("ranges(3) kernel hops cold/warm = %v, want the sequential %v", got, want)
	}
}

// The cached strategy counts its kernels the same way: every range runs on a
// view of its own, so a cold scan's event carries the hops of all of them,
// as many at any parallelism.
func TestEventKernelsCountCachedViews(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(47)))
	cold := func(par int) (sum int64) {
		mat, err := NewCached(g, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		ring := obs.NewEventRing(1)
		eng := NewEngine(g, WithMaterializer(mat), WithEventSink(ring), WithQueryParallelism(par))
		defer eng.Close()
		res, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatal(err)
		}
		if par > 1 && len(res.Shards) != par {
			t.Fatalf("parallelism %d ran %d ranges", par, len(res.Shards))
		}
		for _, n := range ring.Snapshot()[0].Kernels {
			sum += n
		}
		return sum
	}
	want := cold(1)
	if want == 0 {
		t.Fatal("a cold cached scan's event carries no kernel hops")
	}
	for _, par := range []int{2, 3} {
		if got := cold(par); got != want {
			t.Fatalf("parallelism %d: %d kernel hops, the sequential engine's %d", par, got, want)
		}
	}
}

// A warm whole-type scan is two propagations of two hops, every frontier
// most of its type: the event must name the kernel that ran them.
func TestEventKernelsNamePull(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(47)))
	ring := obs.NewEventRing(4)
	eng := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithEventSink(ring), WithQueryParallelism(1))
	defer eng.Close()
	for run := 0; run < 2; run++ {
		if _, err := eng.Execute(faultQuery); err != nil {
			t.Fatal(err)
		}
	}
	if k := ring.Snapshot()[0].Kernels; k["pull"] != 4 || len(k) != 1 {
		t.Fatalf("warm scan kernels = %v, want four pulled hops and nothing else", k)
	}
	want := map[string]int64{"map": 1, "dense": 2, "merge": 3, "pull": 4}
	if got := kernelDelta(metapath.KernelCounts{Map: 1, Dense: 2, Merge: 3, Pull: 4}); !maps.Equal(got, want) {
		t.Fatalf("kernelDelta = %v, want %v", got, want)
	}
}

// TestPoolsInheritTheEngine pins what building pools from an Engine buys: a
// ServePool and an ExecuteBatch over an engine with a non-default measure and
// combination, two remote shards, a registry, an event ring and an in-flight
// table run every query exactly as the engine itself does. The parent's
// BatchOptions mirrored six of an engine's options and had no Events, Inflight
// or RemoteShards, so its batch journaled nothing and executed locally.
func TestPoolsInheritTheEngine(t *testing.T) {
	g := randomBibGraph(rand.New(rand.NewSource(67)))
	queries := []string{
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue : 2, author.paper.term : 1;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author TOP 5;`,
	}
	tab := obs.NewInflight()
	var seenInflight atomic.Int64
	root := NewBaseline(g)
	fleet := make([]RemoteShard, 2)
	for i := range fleet {
		fleet[i] = &fakeRemote{
			addr: fmt.Sprintf("fake-shard-%d", i),
			// A view per call: one client serves every pool worker at once.
			serve: func(ctx context.Context, req *ShardRequest, b *ShardBroadcast) *ShardResponse {
				seenInflight.Store(max(seenInflight.Load(), tab.Len()))
				return ServeShardRequest(ctx, g, NewView(root), req, b)
			},
		}
	}
	ring := obs.NewEventRing(16)
	reg := obs.NewRegistry()
	eng := NewEngine(g, WithMeasure(MeasureCosSim), WithCombination(CombineConcat),
		WithRemoteShards(fleet...), WithObs(reg), WithEventSink(ring), WithInflight(tab))
	want := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = eng.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	emitted := len(queries)

	check := func(t *testing.T, got []*Result) {
		t.Helper()
		emitted += len(queries)
		evs := ring.Snapshot()
		if len(evs) != emitted {
			t.Fatalf("ring has %d events, want %d: exactly one per query", len(evs), emitted)
		}
		for _, ev := range evs[:len(queries)] {
			if ev.Outcome != "ok" || ev.Measure != MeasureCosSim.String() || len(ev.Shards) != len(fleet) {
				t.Fatalf("pool event = %+v, want an ok %s query over %d shards", ev, MeasureCosSim, len(fleet))
			}
		}
		for i, res := range got {
			if !bitIdentical(res, want[i]) {
				t.Fatalf("query %d diverges from the engine's own Execute", i)
			}
			if len(res.Shards) != len(fleet) || res.Shards[1].Addr != fleet[1].Addr() {
				t.Fatalf("query %d: Result.Shards = %+v, want the two remotes", i, res.Shards)
			}
		}
		if seenInflight.Swap(0) == 0 || tab.Len() != 0 {
			t.Fatalf("in-flight table: never saw a running query, or kept one (%d)", tab.Len())
		}
	}

	t.Run("ServePool", func(t *testing.T) {
		pool := NewServePool(eng, ServeOptions{Workers: 2})
		defer pool.Close()
		got := make([]*Result, len(queries))
		for i, q := range queries {
			var err error
			if got[i], err = pool.Execute(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
		check(t, got)
	})
	t.Run("ExecuteBatch", func(t *testing.T) {
		results := ExecuteBatch(eng, queries, BatchOptions{Workers: 2})
		got := make([]*Result, len(queries))
		for i, br := range results {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
			got[i] = br.Result
		}
		check(t, got)
	})
	// The registry saw all of it, and the in-flight gauge rides along.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		fmt.Sprintf(`netout_queries_total{outcome="ok"} %d`, emitted),
		"netout_inflight_queries 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("scrape is missing %q:\n%s", want, sb.String())
		}
	}
}

// The event says where each path's numerators came from: a pool's miss on
// cold norms walks per candidate and names the crossover's inputs, the first
// warm hit walks S back in scratch, the second walks it again and keeps N in
// the store, and every later hit reads what it kept. Only the miss
// reduces Sr, and only its event names the reference side's branch.
func TestEventNamesTheNumerators(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(47)))
	ring := obs.NewEventRing(4)
	pool := NewServePool(NewEngine(g, WithMaterializer(eagerBaseline(g)), WithEventSink(ring), WithQueryParallelism(1)), ServeOptions{Workers: 1})
	defer pool.Close()
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	need := (g.NumVerticesOfType(p.Source()) + candSideMinShare - 1) / candSideMinShare
	for _, step := range []struct {
		name, refside, want string
	}{
		{"pool miss, cold norms", "refside=set", fmt.Sprintf("numer=vertex known=0 need=%d", need)},
		{"first sighting of S", "", "numer=walk"},
		{"second sighting keeps N", "", "numer=walk"},
		{"hit reads N", "", "numer=memo"},
	} {
		if _, err := pool.Execute(context.Background(), faultQuery); err != nil {
			t.Fatal(err)
		}
		want := []string{p.String() + ": " + step.want}
		if step.refside != "" {
			want = append([]string{step.refside}, want...)
		}
		if plan := ring.Snapshot()[0].Plan; !slices.Equal(plan, want) {
			t.Fatalf("%s: event plan %q, want %q", step.name, plan, want)
		}
	}
}

// A reduction of Sr names its branch in one plan line: the set frontier, or
// per-vertex loads with the first reason the set frontier was out — the
// measure, the combination, a count that reached 2⁵³, or Sr under the
// crossover with its candidates scored here, Sr = Sc (held) or not (small). The branch follows the query's shape, not
// the materializer: a cache whose crossover the set reaches propagates too,
// and so does a coordinator of remote shards.
func TestEventNamesTheReferenceSide(t *testing.T) {
	g := fig1Graph(t)
	cache, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cache.lru.minKnown = 1
	// One paper of two authors and a venue, every link 2²⁷: S at the venue is
	// 2·2⁵⁴.
	s := hin.MustSchema("author", "paper", "venue")
	s.AllowLink(1, 0)
	s.AllowLink(1, 2)
	b := hin.NewBuilder(s)
	paper := b.MustAddVertex(1, "P")
	for _, v := range []hin.VertexID{b.MustAddVertex(0, "A0"), b.MustAddVertex(0, "A1"), b.MustAddVertex(2, "V")} {
		if err := b.AddEdgeMult(paper, v, 1<<27); err != nil {
			t.Fatal(err)
		}
	}
	huge := b.Build()
	const compared = `FIND OUTLIERS FROM author COMPARED TO author{"Zoe"} JUDGED BY author.paper.venue;`
	for _, tc := range []struct {
		want string
		g    *hin.Graph
		opts []Option
		src  string
	}{
		{"refside=set", g, []Option{WithMaterializer(eagerBaseline(g))}, faultQuery},
		{"refside=set", g, []Option{WithMaterializer(cache)}, faultQuery},
		{"refside=set", g, []Option{WithRemoteShards(newFakeFleet(t, g, 2)...)}, faultQuery},
		{"refside=vertex (held)", g, nil, faultQuery},
		{"refside=vertex (small)", g, nil, compared},
		{"refside=vertex (measure)", g, []Option{WithMeasure(MeasurePathSim)}, faultQuery},
		{"refside=vertex (concat)", g, []Option{WithCombination(CombineConcat)}, faultQuery},
		{"refside=vertex (2^53)", huge, []Option{WithMaterializer(eagerBaseline(huge))}, faultQuery},
	} {
		ring := obs.NewEventRing(1)
		if _, err := NewEngine(tc.g, append(tc.opts, WithEventSink(ring))...).Execute(tc.src); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range ring.Snapshot()[0].Plan {
			if strings.HasPrefix(line, "refside=") {
				lines = append(lines, line)
			}
		}
		if len(lines) != 1 || lines[0] != tc.want {
			t.Fatalf("reference-side plan lines %q, want [%q]", lines, tc.want)
		}
	}
}
