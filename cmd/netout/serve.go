package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netout"
)

// HTTP serve mode (-serve): a ServePool behind a minimal query endpoint,
// with the admin endpoints (/metrics, /healthz, /debug/slow, /debug/pprof)
// riding along on the same mux. Statuses are derived from the typed error
// taxonomy (netout.ErrorHTTPStatus), never from string matching:
//
//	400 CodeInvalidArgument   the query must change (parse/validate errors)
//	404 CodeNotFound          a vertex named by the query does not exist
//	429 CodeResourceExhausted admission control shed the query; retry later
//	499 CodeCanceled          the client hung up; no body is written
//	503 CodeUnavailable       the pool is draining or closed; retry elsewhere
//	504 CodeDeadlineExceeded  the deadline expired without a usable partial
//	500 CodeInternal          the server's fault — including every
//	                          unclassified error; never the client's
//
// Every response carries an X-Request-Id header (the caller's, if the
// request supplied one, else freshly generated); error bodies repeat it in
// JSON so a 500 can be correlated with its stack at /debug/slow.

// serveConfig is what the HTTP server needs beyond the engine: the pool's
// own bounds and the admin surfaces its mux mounts.
type serveConfig struct {
	addr       string
	workers    int
	maxQueue   int
	timeout    time.Duration
	reg        *netout.MetricsRegistry
	slow       *netout.SlowLog
	adminOpts  []netout.AdminOption
	drainGrace time.Duration
	adminSrv   *http.Server
	quiet      bool
}

// runServe builds the pool from eng and blocks serving HTTP on cfg.addr until
// SIGINT/SIGTERM, then drains: in-flight requests get cfg.drainGrace to
// finish before the server force-closes, and the separate admin endpoint
// (if any) drains under the same grace.
func runServe(eng *netout.Engine, cfg serveConfig) error {
	pool := netout.NewServePool(eng, netout.ServeOptions{
		Workers:        cfg.workers,
		MaxQueue:       cfg.maxQueue,
		DefaultTimeout: cfg.timeout,
	})
	defer pool.Close()
	lis, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if !cfg.quiet {
		fmt.Printf("serving queries on http://%s/query (max-queue %d, timeout %v; admin endpoints on the same address)\n",
			lis.Addr(), cfg.maxQueue, cfg.timeout)
	}
	srv := hardenedServer(cfg.addr, serveHandler(pool, cfg.reg, cfg.slow,
		append(cfg.adminOpts, netout.AdminWithReadiness(pool.Ready))...))
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if !cfg.quiet {
			fmt.Println("draining ...")
		}
		close(stop)
	}()
	defer shutdownHTTP(cfg.adminSrv, cfg.drainGrace)
	return serveAndDrain(srv, lis, stop, cfg.drainGrace)
}

// hardenedServer wraps h in an http.Server with the timeouts a bare
// http.ListenAndServe never sets: a client trickling its request header
// (slowloris) or parking an idle keep-alive connection cannot pin a
// connection slot forever.
func hardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveAndDrain serves srv on lis until stop fires, then shuts down
// gracefully: the listener closes, in-flight requests get grace to finish,
// and whatever remains is force-closed. nil means a clean drain; a non-nil
// error after stop means the grace expired with requests still running.
func serveAndDrain(srv *http.Server, lis net.Listener, stop <-chan struct{}, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	select {
	case err := <-done:
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// shutdownHTTP gracefully stops an auxiliary server (the admin endpoint),
// force-closing when grace expires. nil-safe, so call sites need not track
// whether the endpoint was configured.
func shutdownHTTP(srv *http.Server, grace time.Duration) {
	if srv == nil {
		return
	}
	if grace <= 0 {
		grace = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// queryExecutor is the slice of ServePool the handler needs. The seam lets
// tests drive the full status-mapping table with fake executors returning
// each error class, without constructing pool-internal failure states.
type queryExecutor interface {
	Execute(ctx context.Context, src string) (*netout.Result, error)
}

// jsonError is the machine-readable error body: the taxonomy code (stable
// contract), the human-readable message, and the request ID for /debug/slow
// correlation.
type jsonError struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"request_id,omitempty"`
	} `json:"error"`
}

// maxQueryBody bounds a POSTed query; a longer body is refused with 413.
const maxQueryBody = 1 << 20

// serveHandler builds the serve-mode HTTP handler around an existing pool
// (split from runServe so tests can drive it through httptest). Admin
// options configure the mux's optional surfaces (readiness, event ring,
// in-flight table).
func serveHandler(pool queryExecutor, reg *netout.MetricsRegistry, slow *netout.SlowLog, adminOpts ...netout.AdminOption) http.Handler {
	mux := netout.NewAdminMux(reg, slow, adminOpts...)
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		countResponse := func(status int) {
			if reg != nil {
				reg.Histogram(`netout_http_request_seconds{code="`+strconv.Itoa(status)+`"}`,
					"HTTP /query request latency by status code.").Observe(time.Since(begin).Seconds())
			}
		}
		// Resolve the request ID first: every response — including the
		// early 400s below — must be correlatable.
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = netout.NewRequestID()
		}
		w.Header().Set("X-Request-Id", rid)
		// Wire-ready trace propagation: adopt the caller's W3C traceparent
		// when it parses (becoming a child span of theirs), mint a fresh
		// trace otherwise, and echo this server's span back so the caller
		// can parent us in its own trace view. The span context rides the
		// request context into the engine's trace and wide event.
		sc, ok := netout.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			sc = netout.SpanContext{TraceID: netout.NewTraceID()}
		}
		sc = sc.Child()
		w.Header().Set("traceparent", sc.Traceparent())
		writeError := func(status int, code netout.ErrorCode, msg string) {
			countResponse(status)
			var je jsonError
			je.Error.Code = string(code)
			je.Error.Message = msg
			je.Error.RequestID = rid
			body, _ := json.Marshal(je)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(body)
			w.Write([]byte("\n"))
		}
		src := r.URL.Query().Get("q")
		if src == "" && r.Body != nil {
			// One byte past the limit tells a longer body from one that fits:
			// OQL needs no terminator, so a silently cut query would parse.
			b, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
			if err != nil {
				writeError(http.StatusBadRequest, netout.CodeInvalidArgument,
					"reading request body: "+err.Error())
				return
			}
			if len(b) > maxQueryBody {
				writeError(http.StatusRequestEntityTooLarge, netout.CodeInvalidArgument,
					fmt.Sprintf("request body exceeds %d bytes", maxQueryBody))
				return
			}
			src = string(b)
		}
		if strings.TrimSpace(src) == "" {
			writeError(http.StatusBadRequest, netout.CodeInvalidArgument,
				"missing query: pass ?q=... or a request body")
			return
		}
		ctx := netout.ContextWithRequestID(r.Context(), rid)
		ctx = netout.ContextWithSpanContext(ctx, sc)
		res, err := pool.Execute(ctx, src)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The client hung up: nobody is reading the body. Record the
				// 499 for the access-side metrics and stop — writing a
				// response to a dead connection only obscures logs.
				countResponse(netout.StatusClientClosedRequest)
				w.WriteHeader(netout.StatusClientClosedRequest)
				return
			}
			writeError(netout.ErrorHTTPStatus(err), netout.ErrorCodeOf(err), err.Error())
			return
		}
		jr := newJSONResult(res, false)
		jr.RequestID, jr.TraceID = rid, sc.TraceID
		// Encode to a buffer before touching the ResponseWriter: an encode
		// failure (e.g. a NaN score) must produce a clean 500, not a 200
		// header followed by a half-written body with an error message
		// glued onto valid JSON.
		buf := jsonBufs.Get().(*[]byte)
		defer jsonBufs.Put(buf)
		body, err := appendJSONResult((*buf)[:0], &jr)
		if err != nil {
			writeError(http.StatusInternalServerError, netout.CodeInternal,
				"encoding result: "+err.Error())
			return
		}
		*buf = body
		countResponse(http.StatusOK)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	return mux
}
