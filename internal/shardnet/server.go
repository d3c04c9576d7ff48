package shardnet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/core"
	"netout/internal/hin"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// ServerOptions configures a shard server.
type ServerOptions struct {
	// Workers bounds concurrent request execution: the server holds this
	// many materializer views, and a request runs only while it holds one.
	// Default 4.
	Workers int
	// Queue is how many admitted requests may wait for a view beyond the
	// Workers executing; one more arriving is shed with a typed
	// RESOURCE_EXHAUSTED response. Default 2×Workers.
	Queue int
	// Obs, if set, receives the server's metrics (requests by outcome,
	// sheds, execution latency).
	Obs *obs.Registry
	// Logf, if set, receives connection-level diagnostics (accept and
	// decode failures). Default log.Printf-compatible no-op.
	Logf func(format string, args ...any)
}

// Server hosts one graph slice behind the shardnet protocol: an accept loop
// over a listener, one goroutine per connection reading request frames, a
// bounded view pool as the execution limit, and a slots channel as the
// admission queue. Every decoded request gets exactly one response frame —
// executed, shed with RESOURCE_EXHAUSTED, or out of budget in the queue with
// DEADLINE_EXCEEDED — mirroring the in-process rule that shards always reply.
type Server struct {
	g     *hin.Graph
	opts  ServerOptions
	views chan core.Materializer
	slots chan struct{}

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	sheds *obs.Counter // nil without Obs

	// Test hooks (same-package tests only). gate, when set, runs while the
	// request holds its view — it lets tests hold a request mid-execution.
	// forgeVersion, when non-zero, overwrites the Version of every response,
	// simulating a mixed-revision fleet for skew tests.
	gate         func(req *core.ShardRequest)
	forgeVersion int
}

// NewServer builds a shard server over g with Workers private views of mat.
// The materializer must support concurrent views (core.NewView), exactly
// like the in-process shard tier's runners.
func NewServer(g *hin.Graph, mat core.Materializer, opts ServerOptions) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Queue <= 0 {
		opts.Queue = 2 * opts.Workers
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		g:     g,
		opts:  opts,
		views: make(chan core.Materializer, opts.Workers),
		slots: make(chan struct{}, opts.Workers+opts.Queue),
		conns: make(map[net.Conn]struct{}),
	}
	for i := 0; i < opts.Workers; i++ {
		view, err := core.NewView(mat)
		if err != nil {
			return nil, err
		}
		s.views <- view
	}
	if opts.Obs != nil {
		s.sheds = opts.Obs.Counter("netout_shardsrv_shed_total",
			"Shard requests shed by admission control with RESOURCE_EXHAUSTED.")
		opts.Obs.GaugeFunc("netout_shardsrv_workers", "Shard server view-pool size.",
			func() float64 { return float64(opts.Workers) })
	}
	return s, nil
}

// Serve accepts connections on lis until Close. It returns nil after a
// clean Close, or the fatal accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	if s.closed.Load() {
		// Close ran before lis was recorded and could not close it; Accept
		// would block forever.
		lis.Close()
		return nil
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return xerr.Wrap(xerr.Unavailable, err)
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, severs open connections and waits for in-flight
// request handlers to finish. Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn reads request frames off one connection and answers each in
// order. Requests on one connection are serial by design — the client pools
// connections, so concurrency across queries arrives as concurrent
// connections, each bounded by the shared view pool.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	var payload []byte // one frame buffer for the life of the connection
	for {
		wire, err := readMessage(conn, &payload, kindRequest, decodeRequest)
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				s.opts.Logf("shardnet: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := s.handle(wire)
		if s.forgeVersion != 0 {
			resp.Version = s.forgeVersion
		}
		if err := WriteResponse(conn, resp); err != nil {
			if !s.closed.Load() {
				s.opts.Logf("shardnet: %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// handle executes one decoded request: admission first (non-blocking slot
// acquire, shed with RESOURCE_EXHAUSTED when the queue is full), then a
// view from the bounded pool, then core.ServeShardRequest under the
// propagated deadline, trace identity and request ID. The deadline's budget
// runs from arrival: the wait for a view is time the coordinator has been
// waiting too, and a request whose budget ends in the queue is answered
// DEADLINE_EXCEEDED without ever taking one.
func (s *Server) handle(wire *Request) *core.ShardResponse {
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
	default:
		if s.sheds != nil {
			s.sheds.Inc()
		}
		s.observe("shed", time.Since(start))
		return failedResponse(wire.Req, xerr.New(xerr.ResourceExhausted, "shardnet: shard overloaded, request shed"))
	}
	defer func() { <-s.slots }()

	ctx := context.Background()
	if wire.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wire.Deadline)
		defer cancel()
	}
	var view core.Materializer
	select {
	case view = <-s.views:
	case <-ctx.Done():
		resp := failedResponse(wire.Req, xerr.New(xerr.DeadlineExceeded, "shardnet: deadline expired waiting for a view"))
		s.observe(string(resp.Code), time.Since(start))
		return resp
	}
	defer func() { s.views <- view }()

	if wire.Req.QueryID != "" {
		ctx = obs.WithRequestID(ctx, wire.Req.QueryID)
	}
	if sc, ok := obs.ParseTraceparent(wire.Traceparent); ok {
		// The shard's work is a child span of the coordinator's query span,
		// so a distributed trace shows coordinator → shard edges.
		ctx = obs.WithSpanContext(ctx, sc.Child())
	}
	if s.gate != nil {
		s.gate(wire.Req)
	}
	resp := core.ServeShardRequest(ctx, s.g, view, wire.Req, wire.Broadcast)
	outcome := "ok"
	if resp.Err != "" {
		outcome = string(resp.Code)
	}
	s.observe(outcome, time.Since(start))
	return resp
}

func (s *Server) observe(outcome string, d time.Duration) {
	if s.opts.Obs == nil {
		return
	}
	s.opts.Obs.Counter(`netout_shardsrv_requests_total{outcome="`+outcome+`"}`,
		"Shard requests served by outcome.").Inc()
	s.opts.Obs.Histogram("netout_shardsrv_seconds",
		"Shard request service time (admission to response).").Observe(d.Seconds())
}

// failedResponse is the typed reply of a request that never ran — shed by
// admission control, or out of budget in the queue: a well-formed reply, not a
// dropped connection, so the coordinator can fold it into its Partial
// accounting (or the client can retry with backoff).
func failedResponse(req *core.ShardRequest, err *xerr.Error) *core.ShardResponse {
	return &core.ShardResponse{
		Version:    core.ShardProtocolVersion,
		QueryID:    req.QueryID,
		Shard:      req.Shard,
		Candidates: len(req.Candidates),
		Err:        err.Error(),
		Code:       xerr.CodeOf(err),
		Kind:       xerr.KindOf(err),
	}
}
