package shardnet

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"netout/internal/core"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// The client's timing has one production setting, so it is constants; tests
// in this package assign the Client's fields after Dial.
const (
	// defaultMaxAttempts bounds how many times one Call tries the shard
	// (first attempt + retries). Only transport faults (UNAVAILABLE) and
	// admission sheds (RESOURCE_EXHAUSTED replies) retry — they are the "try
	// again" codes by definition; skew, validation failures and interrupts
	// never do.
	defaultMaxAttempts = 3
	// defaultBackoff is the first retry's sleep; it doubles per retry. The
	// sleep is context-aware, so a cancelled query never sits out a backoff.
	defaultBackoff = 25 * time.Millisecond
	// defaultDialTimeout bounds one TCP connect.
	defaultDialTimeout = 2 * time.Second
	// defaultCallTimeout bounds one attempt when the query's context carries
	// no deadline of its own — the client's backstop against a hung shard.
	defaultCallTimeout = 30 * time.Second
	// defaultDrainGrace extends the connection read deadline past the
	// query's deadline: a shard observing the expired deadline replies
	// promptly with its exact prefix, and this window lets that degraded
	// reply land instead of being severed mid-flight.
	defaultDrainGrace = 250 * time.Millisecond
)

// Client is a coordinator-side remote shard: it implements core.RemoteShard
// over the shardnet codec with connection pooling, bounded retry with
// exponential backoff, and deadline propagation. Safe for concurrent use —
// every query a ServePool runs shares one Client per shard.
type Client struct {
	addr string
	// obs, if set, receives per-shard RPC metrics (attempt counts by outcome,
	// retries, call latency), labeled by shard address.
	obs *obs.Registry

	maxAttempts int
	backoff     time.Duration
	dialTimeout time.Duration
	callTimeout time.Duration
	drainGrace  time.Duration

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// clientConn keeps a connection WITH its buffered reader: the reader may
// have read ahead, so re-wrapping the conn on reuse would lose bytes. payload
// is the frame buffer every response on the connection is read into.
type clientConn struct {
	c       net.Conn
	br      *bufio.Reader
	payload []byte
}

// maxIdleConns bounds the per-client idle pool; beyond it, returning
// connections close instead of parking.
const maxIdleConns = 8

// Dial returns a client for the shard at addr. Connection establishment is
// lazy — the first Call dials — so constructing a fleet of clients never
// blocks on a down shard; the per-call retry/degradation machinery owns
// that failure instead. reg, if non-nil, receives the client's RPC metrics.
func Dial(addr string, reg *obs.Registry) *Client {
	c := &Client{addr: addr, obs: reg,
		maxAttempts: defaultMaxAttempts, backoff: defaultBackoff,
		dialTimeout: defaultDialTimeout, callTimeout: defaultCallTimeout, drainGrace: defaultDrainGrace}
	c.resends() // registered at 0: a healthy fleet reads 0, not nothing
	return c
}

// resends counts the broadcasts sent again in full after the shard answered
// a digest with NOT_FOUND (nil without a registry).
func (c *Client) resends() *obs.Counter {
	if c.obs == nil {
		return nil
	}
	return c.obs.Counter(`netout_shard_rpc_resends_total{addr="`+c.addr+`"}`,
		"Reference broadcasts re-sent in full after the shard did not know their digest.")
}

// Addr names the remote endpoint (core.RemoteShard).
func (c *Client) Addr() string { return c.addr }

// Close releases the client's pooled connections. In-flight calls finish on
// their own connections; later calls dial fresh (a closed client still
// works, it just stops pooling).
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cc := range idle {
		cc.c.Close()
	}
}

func (c *Client) getConn() (*clientConn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		cc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return nil, xerr.Wrap(xerr.Unavailable, err)
	}
	return &clientConn{c: conn, br: bufio.NewReader(conn)}, nil
}

func (c *Client) putConn(cc *clientConn) {
	cc.c.SetDeadline(time.Time{})
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, cc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.c.Close()
}

func (c *Client) observe(outcome string, d time.Duration) {
	c.obs.Counter(`netout_shard_rpc_total{addr="`+c.addr+`",outcome="`+outcome+`"}`,
		"Remote shard RPC attempts by shard address and outcome.").Inc()
	c.obs.Histogram(`netout_shard_rpc_seconds{addr="`+c.addr+`"}`,
		"Remote shard RPC attempt latency.").Observe(d.Seconds())
}

// retryable reports whether one attempt's outcome warrants another try:
// transport loss, or the shard shedding under admission control. The
// response case matters — a shed is a well-formed reply, not an error, and
// backing off then retrying is exactly what RESOURCE_EXHAUSTED asks for.
func retryable(resp *core.ShardResponse, err error) bool {
	if err != nil {
		return xerr.CodeOf(err) == xerr.Unavailable
	}
	return resp.Err != "" && resp.Code == xerr.ResourceExhausted
}

// Call implements core.RemoteShard: one scattered shard request, retried
// with backoff. A non-nil response with Err set is a shard-side failure the
// coordinator classifies; a returned error is transport-level loss (or an
// interrupt) after retries were exhausted. A broadcast sent by digest that
// the shard does not keep (restarted, or evicted) is sent once more in full,
// to be kept: one round trip more, never a different ranking.
func (c *Client) Call(ctx context.Context, req *core.ShardRequest, b *core.ShardBroadcast) (*core.ShardResponse, error) {
	resp, err := c.call(ctx, req, b)
	if err == nil && b != nil && b.Form == core.RefsDigest && resp.Code == xerr.NotFound && resp.Done == 0 {
		if n := c.resends(); n != nil {
			n.Inc()
		}
		full := *b
		full.Form = core.RefsKeep
		resp, err = c.call(ctx, req, &full)
	}
	return resp, err
}

// call is Call's retry loop around one broadcast form.
func (c *Client) call(ctx context.Context, req *core.ShardRequest, b *core.ShardBroadcast) (*core.ShardResponse, error) {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		resp, err := c.callOnce(ctx, req, b)
		if !retryable(resp, err) || attempt+1 >= c.maxAttempts {
			return resp, err
		}
		if c.obs != nil {
			c.obs.Counter(`netout_shard_rpc_retries_total{addr="`+c.addr+`"}`,
				"Remote shard RPC retries after a retryable failure.").Inc()
		}
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, xerr.Interrupt(ctx.Err())
		case <-t.C:
		}
		backoff *= 2
	}
}

func (c *Client) callOnce(ctx context.Context, req *core.ShardRequest, b *core.ShardBroadcast) (*core.ShardResponse, error) {
	start := time.Now()
	resp, err := c.attempt(ctx, req, b)
	if c.obs != nil {
		c.observe(xerr.Outcome(cmp.Or(err, resp.Failure())), time.Since(start))
	}
	return resp, err
}

func (c *Client) attempt(ctx context.Context, req *core.ShardRequest, b *core.ShardBroadcast) (*core.ShardResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, xerr.Interrupt(err)
	}
	cc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	// Deadline propagation: the shard receives the REMAINING budget (clock-
	// skew safe), and the connection read deadline runs drainGrace past it
	// so the shard's post-expiry degraded reply can still land. Without a
	// caller deadline, callTimeout backstops a hung shard.
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			c.putConn(cc)
			return nil, xerr.Interrupt(context.DeadlineExceeded)
		}
	}
	connDL := budget
	if connDL <= 0 {
		connDL = c.callTimeout
	}
	connDL += c.drainGrace
	cc.c.SetDeadline(time.Now().Add(connDL))
	// Cancellation watchdog: an expired deadline is already covered by the
	// connection deadline above, but an explicit cancel must unblock a
	// pending read NOW — nobody is waiting for the reply.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			if ctx.Err() == context.Canceled {
				cc.c.SetDeadline(time.Now())
			}
		case <-watchdogDone:
		}
	}()

	wire := &Request{Req: req, Broadcast: b, Deadline: budget}
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		wire.Traceparent = sc.Traceparent()
	}
	if err := WriteRequest(cc.c, wire); err != nil {
		cc.c.Close()
		return nil, c.classify(ctx, err)
	}
	resp, err := readMessage(cc.br, &cc.payload, kindResponse, decodeResponse)
	if err != nil {
		cc.c.Close()
		return nil, c.classify(ctx, err)
	}
	c.putConn(cc)
	return resp, nil
}

// classify maps a transport fault to its true cause: an I/O error provoked
// by our own watchdog or an expired budget is the context's interrupt, not
// the shard's unavailability; a clean EOF between request and reply is the
// shard dying mid-call (io.EOF is only "clean" BETWEEN frames), which is
// UNAVAILABLE — retryable, and degradable at the coordinator.
func (c *Client) classify(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return xerr.Interrupt(ctxErr)
	}
	if errors.Is(err, io.EOF) {
		return xerr.Wrap(xerr.Unavailable, err)
	}
	return err
}
