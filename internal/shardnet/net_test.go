package shardnet

// Network failure-mode tests over real TCP: shard servers on loopback
// listeners, real Dial'd clients, and an engine scattering over them. The
// contracts under test are the acceptance criteria of the network tier —
// bit-identical results across the process boundary, exact-prefix Partial
// when a shard process dies mid-gather, typed admission sheds, retry and
// hedging, protocol-skew rejection, and deadline propagation. All tests
// here must pass under `go test -race -cpu 1,4`.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netout/internal/core"
	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/xerr"
)

const netQuery = `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`

// testGraph builds a small deterministic bibliographic network, the same
// shape the core shard tests use. Every shard server in a test hosts its
// own copy, exactly as a real fleet loads the same network per process.
func testGraph(t *testing.T) *hin.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	s := hin.MustSchema("author", "paper", "venue", "term")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	tm, _ := s.TypeByName("term")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	s.AllowLink(p, tm)
	b := hin.NewBuilder(s)
	var authors, venues, terms []hin.VertexID
	for i := 0; i < 12; i++ {
		authors = append(authors, b.MustAddVertex(a, fmt.Sprintf("A%d", i)))
	}
	for i := 0; i < 4; i++ {
		venues = append(venues, b.MustAddVertex(v, fmt.Sprintf("V%d", i)))
	}
	for i := 0; i < 6; i++ {
		terms = append(terms, b.MustAddVertex(tm, fmt.Sprintf("T%d", i)))
	}
	for i := 0; i < 25; i++ {
		pp := b.MustAddVertex(p, fmt.Sprintf("P%d", i))
		for j := 0; j <= r.Intn(3); j++ {
			b.MustAddEdge(pp, authors[r.Intn(len(authors))])
		}
		b.MustAddEdge(pp, venues[r.Intn(len(venues))])
		for j := 0; j <= r.Intn(4); j++ {
			b.MustAddEdge(pp, terms[r.Intn(len(terms))])
		}
	}
	return b.Build()
}

// startShard boots one shard server on a loopback listener, in front of a
// pool over its own engine on g, and returns it with its address. reg, when
// set, receives the engine's, the pool's and the server's metrics. The caller
// owns Close (ordering matters for tests that gate handlers); the pool closes
// at cleanup, after the server.
func startShard(t *testing.T, g *hin.Graph, reg *obs.Registry, opts core.ServeOptions) (*Server, string) {
	t.Helper()
	pool := core.NewServePool(core.NewEngine(g, core.WithObs(reg)), opts)
	t.Cleanup(pool.Close)
	srv := NewServer(pool, ServerOptions{Obs: reg})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	return srv, lis.Addr().String()
}

// fleetOf starts n shard servers over g with a client each; tune, when
// non-nil, adjusts every client's timing before its first call.
func fleetOf(t *testing.T, g *hin.Graph, n int, tune func(*Client)) ([]core.RemoteShard, []*Server, []*Client) {
	t.Helper()
	remotes := make([]core.RemoteShard, n)
	servers := make([]*Server, n)
	clients := make([]*Client, n)
	for i := range remotes {
		srv, addr := startShard(t, g, nil, core.ServeOptions{})
		c := Dial(addr, nil)
		if tune != nil {
			tune(c)
		}
		servers[i], clients[i], remotes[i] = srv, c, c
	}
	return remotes, servers, clients
}

func closeFleet(servers []*Server, clients []*Client) {
	for _, c := range clients {
		c.Close()
	}
	for _, s := range servers {
		s.Close()
	}
}

// noGoroutineLeak fails t unless the goroutine count settles back to before
// once the test's servers are closed: Close joins its connection handlers, and
// the runtime reaps them (and the returning Serve loop) a moment later. Every
// test that closes a Server defers it first, so it runs last.
func noGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Close, %d before", n, before)
	}
}

func bitIdentical(a, b *core.Result) bool {
	if len(a.Entries) != len(b.Entries) || len(a.Skipped) != len(b.Skipped) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Vertex != b.Entries[i].Vertex ||
			math.Float64bits(a.Entries[i].Score) != math.Float64bits(b.Entries[i].Score) {
			return false
		}
	}
	for i := range a.Skipped {
		if a.Skipped[i] != b.Skipped[i] {
			return false
		}
	}
	return true
}

// minimalRequest is a zero-work request (no paths, no candidates) for
// transport-focused tests that never need real scoring: a shard that runs it
// answers INVALID_ARGUMENT, as it names no feature path.
func minimalRequest(shard int) *core.ShardRequest {
	return &core.ShardRequest{
		Version: core.ShardProtocolVersion,
		QueryID: "transport-test",
		Shard:   shard,
		Measure: core.MeasureNetOut,
		Combine: core.CombineAverage,
	}
}

// A query scattered over out-of-process shards — request, broadcast and
// reply all crossing real TCP — is bit-identical to unsharded execution
// for every measure and combination, and both sides' metrics register.
func TestNetworkShardsBitIdentical(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	serverReg, clientReg := obs.NewRegistry(), obs.NewRegistry()
	queries := []string{
		netQuery,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue : 2, author.paper.term : 1;`,
	}
	var remotes []core.RemoteShard
	var servers []*Server
	for i := 0; i < 2; i++ {
		srv, addr := startShard(t, g, serverReg, core.ServeOptions{})
		defer srv.Close()
		c := Dial(addr, clientReg)
		defer c.Close()
		servers = append(servers, srv)
		remotes = append(remotes, c)
	}
	_ = servers
	for _, m := range []core.Measure{core.MeasureNetOut, core.MeasurePathSim, core.MeasureCosSim} {
		for _, comb := range []core.Combination{core.CombineAverage, core.CombineConcat} {
			plain := core.NewEngine(g, core.WithMeasure(m), core.WithCombination(comb))
			eng := core.NewEngine(g, core.WithMeasure(m), core.WithCombination(comb),
				core.WithRemoteShards(remotes...))
			for _, src := range queries {
				want, err1 := plain.Execute(src)
				got, err2 := eng.Execute(src)
				if err1 != nil || err2 != nil {
					t.Fatalf("measure %v combine %v %q: %v / %v", m, comb, src, err1, err2)
				}
				if !bitIdentical(want, got) {
					t.Fatalf("measure %v combine %v diverges over TCP on %q:\nlocal  %+v\nremote %+v",
						m, comb, src, want.Entries, got.Entries)
				}
				if got.Partial {
					t.Fatalf("healthy fleet produced a partial result")
				}
			}
			// Served, each text twice: its compiled entry sends S to be kept
			// the first time and by digest the second.
			full := serverReg.Counter("netout_shardsrv_full_broadcasts_total", "")
			pool := core.NewServePool(eng, core.ServeOptions{})
			for _, src := range queries {
				want, _ := plain.Execute(src)
				for repeat := range 2 {
					before := full.Value()
					got, err := pool.Execute(context.Background(), src)
					if err != nil || !bitIdentical(want, got) || got.Partial {
						t.Fatalf("measure %v combine %v %q served, repeat %d: %v", m, comb, src, repeat, err)
					}
					if sent, wantSent := full.Value()-before, int64(2*(1-repeat)); sent != wantSent {
						t.Fatalf("measure %v combine %v %q served, repeat %d: %d broadcasts in full, want %d", m, comb, src, repeat, sent, wantSent)
					}
				}
			}
			pool.Close()
			eng.Close()
			plain.Close()
		}
	}
	var buf bytes.Buffer
	clientReg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "netout_shard_rpc_total") {
		t.Error("client registry missing netout_shard_rpc_total")
	}
	buf.Reset()
	serverReg.WritePrometheus(&buf)
	for _, m := range []string{"netout_shardsrv_requests_total", "netout_shardsrv_seconds", "netout_serve_workers"} {
		if !strings.Contains(buf.String(), m) {
			t.Errorf("server registry missing %s", m)
		}
	}
}

// Acceptance criterion: killing one shard process mid-query yields
// Partial=true with the surviving shards' exact (bit-identical) scores.
// The victim's handler is gated mid-execution, the server is closed —
// severing its connections and listener, exactly what a process death does
// to the coordinator — and the query must degrade, not fail.
func TestNetworkShardKilledMidQueryDegradesToExactPrefix(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	want, err := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut)).Execute(netQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantScore := make(map[hin.VertexID]uint64, len(want.Entries))
	for _, e := range want.Entries {
		wantScore[e.Vertex] = math.Float64bits(e.Score)
	}

	remotes, servers, clients := fleetOf(t, g, 3, func(c *Client) { c.maxAttempts, c.backoff = 2, time.Millisecond })
	victim := servers[1]
	reached := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	victim.gate = func(*core.ShardRequest) {
		if once.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
	}

	eng := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut), core.WithRemoteShards(remotes...))
	defer eng.Close()
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Execute(netQuery)
		done <- outcome{res, err}
	}()

	<-reached
	// Kill the shard process: listener and connections sever immediately;
	// Close blocks on the gated handler, so it runs on its own goroutine.
	closed := make(chan struct{})
	go func() {
		victim.Close()
		close(closed)
	}()

	o := <-done
	if o.err != nil {
		t.Fatalf("killed shard failed the query instead of degrading: %v", o.err)
	}
	close(release)
	<-closed
	closeFleet(servers, clients)

	res := o.res
	if !res.Partial {
		t.Fatal("Partial = false after killing a shard mid-query")
	}
	if len(res.Trace.Shards) != 3 {
		t.Fatalf("shard accounting = %+v", res.Trace.Shards)
	}
	covered := 0
	for i, st := range res.Trace.Shards {
		if i == 1 {
			if st.Done != 0 || !st.Partial || st.Err == "" {
				t.Fatalf("victim accounting = %+v, want Done 0 with classified error", st)
			}
			continue
		}
		if st.Partial || st.Done != st.Candidates {
			t.Fatalf("surviving shard %d accounting = %+v, want complete", i, st)
		}
		covered += st.Candidates
	}
	if got := len(res.Entries) + len(res.Skipped); got != covered {
		t.Fatalf("partial covers %d candidates, want the survivors' %d", got, covered)
	}
	for _, e := range res.Entries {
		bits, ok := wantScore[e.Vertex]
		if !ok || bits != math.Float64bits(e.Score) {
			t.Fatalf("surviving score for %q not bit-identical to unsharded", e.Name)
		}
	}
}

// A draining shard — its pool closed while its server still accepts — answers
// with a well-formed UNAVAILABLE reply, nothing done, and a query over a fleet
// holding it degrades to Partial with the other shard's exact scores.
func TestNetworkDrainingShardDegradesToExactPrefix(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	want, err := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut)).Execute(netQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantScore := make(map[hin.VertexID]uint64, len(want.Entries))
	for _, e := range want.Entries {
		wantScore[e.Vertex] = math.Float64bits(e.Score)
	}
	remotes, servers, clients := fleetOf(t, g, 2, func(c *Client) { c.maxAttempts, c.backoff = 2, time.Millisecond })
	defer closeFleet(servers, clients)
	servers[1].pool.Close()

	resp, err := clients[1].Call(context.Background(), minimalRequest(1), nil)
	if err != nil || resp.Code != xerr.Unavailable || resp.Done != 0 || resp.Err != core.ErrPoolClosed.Error() {
		t.Fatalf("draining shard answered %+v, %v; want ErrPoolClosed's UNAVAILABLE with nothing done", resp, err)
	}
	res, err := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut), core.WithRemoteShards(remotes...)).Execute(netQuery)
	if err != nil {
		t.Fatalf("draining shard failed the query instead of degrading: %v", err)
	}
	if !res.Partial || len(res.Trace.Shards) != 2 {
		t.Fatalf("Partial = %v, shards %+v; want a Partial over two shards", res.Partial, res.Trace.Shards)
	}
	if st := res.Trace.Shards[1]; st.Done != 0 || !st.Partial || !strings.Contains(st.Err, core.ErrPoolClosed.Error()) {
		t.Fatalf("draining shard accounting = %+v, want Done 0 with ErrPoolClosed", st)
	}
	if st := res.Trace.Shards[0]; st.Partial || st.Done != st.Candidates {
		t.Fatalf("healthy shard accounting = %+v, want complete", st)
	}
	if got := len(res.Entries) + len(res.Skipped); got != res.Trace.Shards[0].Candidates {
		t.Fatalf("partial covers %d candidates, want the healthy shard's %d", got, res.Trace.Shards[0].Candidates)
	}
	for _, e := range res.Entries {
		bits, ok := wantScore[e.Vertex]
		if !ok || bits != math.Float64bits(e.Score) {
			t.Fatalf("surviving score for %q not bit-identical to unsharded", e.Name)
		}
	}
}

// A shard server stamped with a foreign protocol revision fails the query
// with a typed INTERNAL skew error naming the shard's address — end to end
// over TCP, the mixed-revision-fleet scenario.
func TestNetworkForgedVersionSkewFailsQuery(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	remotes, servers, clients := fleetOf(t, g, 2, nil)
	defer closeFleet(servers, clients)
	servers[1].forgeVersion = core.ShardProtocolVersion + 7

	eng := core.NewEngine(g, core.WithRemoteShards(remotes...))
	defer eng.Close()
	_, err := eng.Execute(netQuery)
	if err == nil {
		t.Fatal("mixed-revision fleet merged silently; want a skew failure")
	}
	if xerr.CodeOf(err) != xerr.Internal {
		t.Fatalf("skew error code = %v (%v), want INTERNAL", xerr.CodeOf(err), err)
	}
	if !strings.Contains(err.Error(), "protocol skew") || !strings.Contains(err.Error(), clients[1].Addr()) {
		t.Fatalf("skew error %q does not name the offense and the offender", err)
	}
}

// Admission control: with every worker and queue slot held, the next
// request is shed with a well-formed RESOURCE_EXHAUSTED reply (not a
// dropped connection), and the server counts it once, as overloaded.
func TestNetworkAdmissionShed(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	reg := obs.NewRegistry()
	srv, addr := startShard(t, g, reg, core.ServeOptions{Workers: 1, MaxQueue: 1})
	defer srv.Close()
	release := make(chan struct{})
	defer close(release) // before srv.Close in LIFO order: parked handlers drain first
	reached := make(chan struct{})
	var once atomic.Bool
	srv.gate = func(*core.ShardRequest) {
		if once.CompareAndSwap(false, true) {
			close(reached)
		}
		<-release
	}

	c := Dial(addr, nil)
	c.maxAttempts = 1
	defer c.Close()
	// Park one request mid-execution (holds the run token and a handle)...
	parked := make(chan struct{})
	go func() {
		c.Call(context.Background(), minimalRequest(0), nil)
		close(parked)
	}()
	<-reached
	// ...then fire two requests at once: whichever gets the queue slot waits
	// out its budget there (the server answers DEADLINE_EXCEEDED, or its
	// client gives up first), and with worker and queue both full the other
	// must shed.
	codes := make(chan xerr.Code, 2)
	for i := 0; i < 2; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			resp, err := c.Call(ctx, minimalRequest(0), nil)
			if err != nil {
				codes <- xerr.CodeOf(err)
				return
			}
			codes <- resp.Code
		}()
	}
	if a, b := <-codes, <-codes; a != xerr.ResourceExhausted && b != xerr.ResourceExhausted {
		t.Fatalf("saturated shard answered %q and %q, want one RESOURCE_EXHAUSTED shed", a, b)
	}
	if n := counterOf(reg, `netout_shardsrv_requests_total{outcome="overloaded"}`); n != 1 {
		t.Errorf("shard counted %d overloaded requests, want the one shed", n)
	}
	_ = parked
}

// A shard dropping the connection between request and reply is retried on a
// fresh connection; the call succeeds without the caller seeing the drop.
func TestClientRetriesAfterConnDrop(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var conns int32
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			n := atomic.AddInt32(&conns, 1)
			go func(conn net.Conn, n int32) {
				defer conn.Close()
				wire, err := ReadRequest(conn)
				if err != nil {
					return
				}
				if n == 1 {
					return // drop without replying — mid-call EOF at the client
				}
				WriteResponse(conn, &core.ShardResponse{
					Version: core.ShardProtocolVersion,
					QueryID: wire.Req.QueryID,
					Shard:   wire.Req.Shard,
				})
			}(conn, n)
		}
	}()

	reg := obs.NewRegistry()
	c := Dial(lis.Addr().String(), reg)
	c.backoff = time.Millisecond
	defer c.Close()
	resp, err := c.Call(context.Background(), minimalRequest(0), nil)
	if err != nil {
		t.Fatalf("Call after conn drop: %v", err)
	}
	if resp.Err != "" || resp.Version != core.ShardProtocolVersion {
		t.Fatalf("reply = %+v", resp)
	}
	if got := atomic.LoadInt32(&conns); got != 2 {
		t.Fatalf("server saw %d connections, want 2 (drop + retry)", got)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "netout_shard_rpc_retries_total") {
		t.Error("retry counter not registered")
	}
}

// An expired or cancelled context never touches the network: the call
// returns the context's own interrupt.
func TestClientContextInterrupt(t *testing.T) {
	c := Dial("127.0.0.1:1", nil) // nothing listens; must not matter
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.Call(ctx, minimalRequest(0), nil); xerr.CodeOf(err) != xerr.DeadlineExceeded {
		t.Fatalf("expired ctx = %v, want DEADLINE_EXCEEDED", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.Call(ctx2, minimalRequest(0), nil); xerr.CodeOf(err) != xerr.Canceled {
		t.Fatalf("cancelled ctx = %v, want CANCELED", err)
	}
}

// Deadline propagation end to end: a query deadline expires while one shard
// is stalled; the stalled shard's loss is classified as the deadline, the
// query degrades to the survivors' exact prefix, and nothing hangs past the
// drain grace.
func TestNetworkDeadlinePropagation(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	want, err := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut)).Execute(netQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantScore := make(map[hin.VertexID]uint64, len(want.Entries))
	for _, e := range want.Entries {
		wantScore[e.Vertex] = math.Float64bits(e.Score)
	}

	remotes, servers, clients := fleetOf(t, g, 2,
		func(c *Client) { c.maxAttempts, c.drainGrace = 1, 200*time.Millisecond })
	release := make(chan struct{})
	var once atomic.Bool
	servers[1].gate = func(*core.ShardRequest) {
		if once.CompareAndSwap(false, true) {
			<-release
		}
	}

	eng := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut), core.WithRemoteShards(remotes...))
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := eng.ExecuteContext(ctx, netQuery)
	elapsed := time.Since(start)
	close(release)
	closeFleet(servers, clients)
	if err != nil {
		t.Fatalf("deadline on one shard failed the query instead of degrading: %v", err)
	}
	if !res.Partial {
		t.Fatal("Partial = false with one shard past the deadline")
	}
	if res.Trace.Shards[1].Done != 0 || !res.Trace.Shards[1].Partial {
		t.Fatalf("stalled shard accounting = %+v", res.Trace.Shards[1])
	}
	if res.Trace.Shards[0].Done != res.Trace.Shards[0].Candidates {
		t.Fatalf("healthy shard accounting = %+v", res.Trace.Shards[0])
	}
	for _, e := range res.Entries {
		bits, ok := wantScore[e.Vertex]
		if !ok || bits != math.Float64bits(e.Score) {
			t.Fatalf("surviving score for %q not bit-identical", e.Name)
		}
	}
	// Budget (250ms) + client drain grace (200ms) + scheduling headroom: the
	// stalled shard must not pin the query anywhere near the release above.
	if elapsed > 3*time.Second {
		t.Fatalf("query took %v; deadline did not propagate", elapsed)
	}
}

// A shard server answers requests on pooled connections across sequential
// queries — the idle pool re-reads from the SAME buffered reader, so any
// read-ahead loss would corrupt the second query's frames.
func TestConnectionReuseAcrossQueries(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	remotes, servers, clients := fleetOf(t, g, 2, nil)
	defer closeFleet(servers, clients)
	eng := core.NewEngine(g, core.WithMeasure(core.MeasureNetOut), core.WithRemoteShards(remotes...))
	defer eng.Close()
	var first *core.Result
	for i := 0; i < 5; i++ {
		res, err := eng.Execute(netQuery)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if first == nil {
			first = res
		} else if !bitIdentical(first, res) {
			t.Fatalf("query %d diverged from query 0 on reused connections", i)
		}
	}
}

// A wrong-graph shard — its schema lacks a type the query's feature path
// names — refuses the request as INVALID_ARGUMENT, and that fails the query at
// the coordinator: a shard that cannot walk the path must not fold into a
// Partial, let alone answer "every candidate skipped".
func TestNetworkForeignPathFailsQuery(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	s := hin.MustSchema("author", "paper")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	s.AllowLink(p, a)
	b := hin.NewBuilder(s)
	for i := 0; i < g.NumVertices(); i++ { // every candidate ID exists there too
		b.MustAddVertex(a, fmt.Sprintf("A%d", i))
	}
	wrong, addr := startShard(t, b.Build(), nil, core.ServeOptions{})
	defer wrong.Close()
	right, servers, clients := fleetOf(t, g, 1, nil)
	defer closeFleet(servers, clients)
	c := Dial(addr, nil)
	defer c.Close()

	eng := core.NewEngine(g, core.WithRemoteShards(right[0], c))
	_, err := eng.Execute(netQuery)
	if xerr.CodeOf(err) != xerr.InvalidArgument || !strings.Contains(err.Error(), "feature path") {
		t.Fatalf("query over a wrong-graph shard: %v, want the shard's INVALID_ARGUMENT", err)
	}
}

// A request's budget runs from its arrival, not from the moment it gets a run
// token: with the one token held by A, B's budget expires in the queue and B
// is answered DEADLINE_EXCEEDED, nothing done, its reply's Duration the wait,
// while A is still running — it used to wait for A, then run its whole budget
// for a coordinator long gone. The shard counts each once, by its outcome.
func TestNetworkDeadlineRunsFromArrival(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	reg := obs.NewRegistry()
	srv, addr := startShard(t, g, reg, core.ServeOptions{Workers: 1, MaxQueue: 1})
	defer srv.Close()
	release, reached := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	srv.gate = func(*core.ShardRequest) {
		if once.CompareAndSwap(false, true) {
			close(reached)
			<-release
		}
	}
	probe := scanFrame(t, g, &core.ShardBroadcast{Refs: make([]core.ShardRefState, 1)}, nil) // one path, no candidate
	call := func(budget time.Duration) (*core.ShardResponse, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		wire := *probe
		wire.Deadline = budget
		if err := WriteRequest(conn, &wire); err != nil {
			return nil, err
		}
		return ReadResponse(conn)
	}
	type reply struct {
		resp *core.ShardResponse
		err  error
	}
	held := make(chan reply, 1)
	go func() {
		resp, err := call(0)
		held <- reply{resp, err}
	}()
	<-reached

	resp, err := call(50 * time.Millisecond)
	if err != nil {
		close(release)
		t.Fatalf("B got no reply while A held the run token: %v", err)
	}
	if resp.Code != xerr.DeadlineExceeded || resp.Done != 0 {
		t.Errorf("B answered %+v, want DEADLINE_EXCEEDED with nothing done", resp)
	}
	if resp.Duration < 50*time.Millisecond {
		t.Errorf("B's reply says it took %v, but it waited out its 50ms budget", resp.Duration)
	}
	select {
	case a := <-held:
		t.Errorf("A finished before its release: %+v, %v", a.resp, a.err)
	default:
	}
	close(release)
	if a := <-held; a.err != nil || a.resp.Err != "" {
		t.Fatalf("A = %+v, %v; want a clean reply after B's expiry", a.resp, a.err)
	}
	for outcome, want := range map[string]int64{"ok": 1, "deadline": 1} {
		if n := counterOf(reg, `netout_shardsrv_requests_total{outcome="`+outcome+`"}`); n != want {
			t.Errorf("shard counted %d %s requests, want %d", n, outcome, want)
		}
	}
}

// A Server closed before its Serve loop recorded the listener still stops:
// Serve closes the listener itself instead of blocking in Accept forever, the
// goroutine a caller's `go srv.Serve(lis)` would otherwise leak.
func TestServeAfterCloseReturns(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	pool := core.NewServePool(core.NewEngine(g), core.ServeOptions{})
	defer pool.Close()
	srv := NewServer(pool, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		lis.Close()
		<-done
		t.Fatal("Serve after Close blocked in Accept")
	}
}

// counterOf reads a counter some component registered on reg.
func counterOf(reg *obs.Registry, name string) int64 { return reg.Counter(name, "").Value() }

// servedFleet is a pool over an engine scattering over shards at addrs, its
// clients' metrics on reg, and the inline answer it must give to src.
func servedFleet(t *testing.T, g *hin.Graph, reg *obs.Registry, src string, addrs ...string) (run func()) {
	t.Helper()
	remotes := make([]core.RemoteShard, len(addrs))
	for i, addr := range addrs {
		c := Dial(addr, reg)
		t.Cleanup(c.Close)
		remotes[i] = c
	}
	pool := core.NewServePool(core.NewEngine(g, core.WithRemoteShards(remotes...)), core.ServeOptions{})
	t.Cleanup(pool.Close)
	want, err := core.NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		got, err := pool.Execute(context.Background(), src)
		if err != nil || got.Partial || !bitIdentical(want, got) {
			t.Fatalf("served %q: %v (partial %v), want inline execution's answer", src, err, got != nil && got.Partial)
		}
	}
}

// A shard restarted between two repeats no longer keeps the S the next one
// names by digest: it answers NOT_FOUND once, the client sends S again in
// full, and the answer is inline execution's. The restarted shard keeps S
// from then on.
func TestNetworkRestartedShardIsSentSAgain(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	old, addr := startShard(t, g, nil, core.ServeOptions{})
	other, addr1 := startShard(t, g, nil, core.ServeOptions{})
	defer other.Close()
	reg := obs.NewRegistry()
	run := servedFleet(t, g, reg, netQuery, addr, addr1)
	run() // S sent to be kept
	run() // by digest
	old.Close()
	pool := core.NewServePool(core.NewEngine(g), core.ServeOptions{})
	defer pool.Close()
	restarted := NewServer(pool, ServerOptions{})
	defer restarted.Close()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go restarted.Serve(lis)
	run()
	run()
	resends := `netout_shard_rpc_resends_total{addr="` + addr + `"}`
	notFound := `netout_shard_rpc_total{addr="` + addr + `",outcome="not_found"}`
	if r, n := counterOf(reg, resends), counterOf(reg, notFound); r != 1 || n != 1 {
		t.Fatalf("restarted shard: %d NOT_FOUND replies and %d re-sends, want 1 and 1", n, r)
	}
	if r := counterOf(reg, `netout_shard_rpc_resends_total{addr="`+addr1+`"}`); r != 0 {
		t.Fatalf("the shard that kept S was sent it again %d times", r)
	}
}

// A shard whose store is too small to keep any S answers every digest
// NOT_FOUND: every call by digest is sent again in full, and no answer is
// Partial.
func TestNetworkStoreTooSmallForSResendsEveryCall(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	addrs := make([]string, 2)
	for i := range addrs {
		mat, err := core.NewCached(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		pool := core.NewServePool(core.NewEngine(g, core.WithMaterializer(mat)), core.ServeOptions{})
		defer pool.Close()
		srv := NewServer(pool, ServerOptions{})
		defer srv.Close()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis)
		addrs[i] = lis.Addr().String()
	}
	reg := obs.NewRegistry()
	run := servedFleet(t, g, reg, netQuery, addrs...)
	const runs = 4
	for range runs {
		run()
	}
	for _, addr := range addrs {
		if r := counterOf(reg, `netout_shard_rpc_resends_total{addr="`+addr+`"}`); r != runs-1 {
			t.Fatalf("shard %s: %d re-sends over %d calls by digest, want every one", addr, r, runs-1)
		}
	}
}

// scanFrame is a whole-type NetOut request over author.paper.venue on g with
// the broadcast b.
func scanFrame(t *testing.T, g *hin.Graph, b *core.ShardBroadcast, run *core.CandidateRun) *Request {
	t.Helper()
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	req := minimalRequest(0)
	req.Weights, req.Paths, req.Run = []float64{1}, []metapath.Path{p}, run
	return &Request{Req: req, Broadcast: b}
}

// roundTrip sends one raw request frame to the shard at addr and reads its
// reply.
func roundTrip(t *testing.T, addr string, wire *Request) *core.ShardResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteRequest(conn, wire); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// A frame naming by digest an S the shard never kept is answered with a
// typed NOT_FOUND, nothing done and no entries.
func TestNetworkUnknownDigestIsNotFound(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	srv, addr := startShard(t, g, nil, core.ServeOptions{})
	defer srv.Close()
	a, _ := g.Schema().TypeByName("author")
	b := &core.ShardBroadcast{Form: core.RefsDigest, Refs: []core.ShardRefState{{Digest: [32]byte{1, 2, 3}}}}
	resp := roundTrip(t, addr, scanFrame(t, g, b, &core.CandidateRun{Type: a, Hi: g.NumVerticesOfType(a)}))
	if resp.Code != xerr.NotFound || !strings.Contains(resp.Err, "unknown reference digest") || resp.Done != 0 || len(resp.Entries) != 0 {
		t.Fatalf("unknown digest answered %+v, want NOT_FOUND with nothing done", resp)
	}
}

// A candidate run the shard's graph does not have — a foreign type, lo past
// hi, hi past the type — is INVALID_ARGUMENT.
func TestNetworkBadRunIsInvalidArgument(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	g := testGraph(t)
	srv, addr := startShard(t, g, nil, core.ServeOptions{})
	defer srv.Close()
	a, _ := g.Schema().TypeByName("author")
	n := g.NumVerticesOfType(a)
	b := &core.ShardBroadcast{Refs: []core.ShardRefState{{}}}
	if resp := roundTrip(t, addr, scanFrame(t, g, b, &core.CandidateRun{Type: a, Hi: n})); resp.Err != "" || resp.Done != n {
		t.Fatalf("the whole type as a run: %+v", resp)
	}
	for _, run := range []core.CandidateRun{
		{Type: hin.TypeID(g.Schema().NumTypes()), Hi: 1},
		{Type: a, Lo: 3, Hi: 2},
		{Type: a, Lo: 1, Hi: n + 1},
	} {
		if resp := roundTrip(t, addr, scanFrame(t, g, b, &run)); resp.Code != xerr.InvalidArgument || resp.Done != 0 {
			t.Fatalf("run %+v answered %+v, want INVALID_ARGUMENT", run, resp)
		}
	}
}

// Each shard explains its plan: a whole-type scan's event carries the shards'
// plan lines, behind their shard index. A shard's half of the type clears the
// crossover, so a repeated scan reads, on every path of both shards, the
// cold walk per vertex, a walk of S, a walk that keeps N, then N kept
// (numer=memo), though every repeat names S by digest.
func TestNetworkShardsExplainTheirPlans(t *testing.T) {
	defer noGoroutineLeak(t, runtime.NumGoroutine())
	cfg := gen.Scaled(2) // 2 057 authors: each half clears candSideMinKnown
	cfg.Seed = 1
	g, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		srv, addr := startShard(t, g, nil, core.ServeOptions{})
		defer srv.Close()
		addrs[i] = addr
	}
	remotes := make([]core.RemoteShard, len(addrs))
	for i, addr := range addrs {
		c := Dial(addr, nil)
		defer c.Close()
		remotes[i] = c
	}
	ring := obs.NewEventRing(4)
	pool := core.NewServePool(core.NewEngine(g, core.WithRemoteShards(remotes...), core.WithEventSink(ring)), core.ServeOptions{})
	defer pool.Close()
	const scan = `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author TOP 5;`
	for i, numer := range []string{"vertex", "walk", "walk", "memo"} {
		if _, err := pool.Execute(context.Background(), scan); err != nil {
			t.Fatal(err)
		}
		plan := ring.Snapshot()[0].Plan
		for shard := range 2 {
			for _, path := range []string{"(0 1 2)", "(0 1 0)"} {
				line := fmt.Sprintf("shard %d %s: numer=%s", shard, path, numer)
				if !slices.ContainsFunc(plan, func(l string) bool { return strings.HasPrefix(l, line) }) {
					t.Fatalf("request %d: plan %q, want a line %q", i, plan, line)
				}
			}
		}
	}
}
