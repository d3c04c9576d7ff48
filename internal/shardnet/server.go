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
	// Obs, if set, receives the server's metrics (requests by outcome,
	// service latency, broadcasts received in full).
	Obs *obs.Registry
	// Logf, if set, receives connection-level diagnostics (accept and
	// decode failures). Default log.Printf-compatible no-op.
	Logf func(format string, args ...any)
}

// Server hosts one graph slice behind the shardnet protocol: an accept loop
// over a listener and one goroutine per connection reading request frames, in
// front of the process's ServePool — the gate and the engine every other query
// of the process runs on. Every decoded request gets exactly one response
// frame — executed, shed with RESOURCE_EXHAUSTED, out of budget in the queue
// with DEADLINE_EXCEEDED, or refused by a closed pool with UNAVAILABLE —
// mirroring the in-process rule that shards always reply.
type Server struct {
	pool *core.ServePool
	opts ServerOptions

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// Test hooks (same-package tests only). gate, when set, runs while the
	// request holds its run token and handle — it lets tests hold a request
	// mid-execution. forgeVersion, when non-zero, overwrites the Version of
	// every response, simulating a mixed-revision fleet for skew tests.
	gate         func(req *core.ShardRequest)
	forgeVersion int
}

// NewServer builds a shard server in front of pool: each request runs through
// pool.Run, under the pool's Workers and MaxQueue, on a handle of the pool's
// engine. The server does not own the pool; close the pool after the server.
func NewServer(pool *core.ServePool, opts ServerOptions) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Server{pool: pool, opts: opts, conns: make(map[net.Conn]struct{})}
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
// connections, each bounded by the one ServePool.
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

// handle answers one decoded request through the pool's Run, under the
// propagated deadline, trace identity and request ID. The deadline's budget
// runs from arrival: the wait for a run token is time the coordinator has been
// waiting too, and a request whose budget ends in the queue is answered
// DEADLINE_EXCEEDED without ever running.
func (s *Server) handle(wire *Request) *core.ShardResponse {
	start := time.Now()
	ctx := context.Background()
	if wire.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wire.Deadline)
		defer cancel()
	}
	if wire.Req.QueryID != "" {
		ctx = obs.WithRequestID(ctx, wire.Req.QueryID)
	}
	if sc, ok := obs.ParseTraceparent(wire.Traceparent); ok {
		// The shard's work is a child span of the coordinator's query span,
		// so a distributed trace shows coordinator → shard edges.
		ctx = obs.WithSpanContext(ctx, sc.Child())
	}
	if s.opts.Obs != nil && wire.Broadcast.Form != core.RefsDigest {
		s.opts.Obs.Counter("netout_shardsrv_full_broadcasts_total",
			"Shard requests whose reference broadcast arrived in full, not by digest.").Inc()
	}
	var resp *core.ShardResponse
	err := s.pool.Run(ctx, func(ctx context.Context, g *hin.Graph, mat *core.Materializer) error {
		if s.gate != nil {
			s.gate(wire.Req)
		}
		resp = core.ServeShardRequest(ctx, g, mat, wire.Req, wire.Broadcast)
		return resp.Failure()
	})
	if resp == nil {
		resp = failedResponse(wire.Req, err, time.Since(start))
	}
	s.observe(xerr.Outcome(err), time.Since(start))
	return resp
}

func (s *Server) observe(outcome string, d time.Duration) {
	if s.opts.Obs == nil {
		return
	}
	s.opts.Obs.Counter(`netout_shardsrv_requests_total{outcome="`+outcome+`"}`,
		"Shard requests served by outcome.").Inc()
	s.opts.Obs.Histogram("netout_shardsrv_seconds",
		"Shard request service time (arrival to response).").Observe(d.Seconds())
}

// failedResponse is the typed reply of a request that never ran — refused by
// a closed pool, shed by admission control, or out of budget in the queue: a
// well-formed reply, not a dropped connection, so the coordinator can fold it
// into its Partial accounting (or the client can retry with backoff). Its
// Duration is the time since arrival, the wait the coordinator saw.
func failedResponse(req *core.ShardRequest, err error, waited time.Duration) *core.ShardResponse {
	return &core.ShardResponse{
		Version:  core.ShardProtocolVersion,
		QueryID:  req.QueryID,
		Shard:    req.Shard,
		Duration: waited,
		Err:      err.Error(),
		Code:     xerr.CodeOf(err),
		Kind:     xerr.KindOf(err),
	}
}
