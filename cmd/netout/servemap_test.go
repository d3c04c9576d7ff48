package main

// Table-driven status-mapping suite for the /query handler: every serving
// error class, injected through the queryExecutor seam, must map to its
// taxonomy status and JSON error code, bump the per-status response
// counter, and carry the request ID end to end. This is the codification of
// the statuses the seed handler got wrong (everything fell through to 400).

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netout"
	"netout/internal/core"
	"netout/internal/obs"
	"netout/internal/xerr"
)

// fakeExecutor returns a canned (result, error) pair and records the
// context it was called with.
type fakeExecutor struct {
	res     *netout.Result
	err     error
	lastCtx context.Context
}

func (f *fakeExecutor) Execute(ctx context.Context, src string) (*netout.Result, error) {
	f.lastCtx = ctx
	return f.res, f.err
}

// counterValue digs one counter's value out of a Prometheus scrape (0 when
// the sample is absent).
func counterValue(t *testing.T, reg *netout.MetricsRegistry, sample string) float64 {
	t.Helper()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(sb.String())
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("counter %s: %v", sample, err)
	}
	return v
}

func TestServeHandlerStatusMapping(t *testing.T) {
	for name, tc := range map[string]struct {
		err      error
		status   int
		code     string
		noBody   bool
		contains string // substring of the JSON error message
		pad      int    // blanks between the query and a second feature path
	}{
		"overloaded": {
			err:    core.ErrOverloaded,
			status: http.StatusTooManyRequests,
			code:   "RESOURCE_EXHAUSTED",
		},
		"pool closed": {
			err:    core.ErrPoolClosed,
			status: http.StatusServiceUnavailable,
			code:   "UNAVAILABLE",
		},
		"deadline": {
			err:    context.DeadlineExceeded,
			status: http.StatusGatewayTimeout,
			code:   "DEADLINE_EXCEEDED",
		},
		"canceled": {
			err:    context.Canceled,
			status: netout.StatusClientClosedRequest,
			noBody: true,
		},
		"panic defect": {
			err:    &core.PanicError{Value: "boom", Stack: "goroutine 1 [running]:"},
			status: http.StatusInternalServerError,
			code:   "INTERNAL",
		},
		"invalid argument": {
			err:    xerr.New(netout.CodeInvalidArgument, "oql: bad query"),
			status: http.StatusBadRequest,
			code:   "INVALID_ARGUMENT",
		},
		"not found": {
			err:    xerr.New(netout.CodeNotFound, `core: no author named "X"`),
			status: http.StatusNotFound,
			code:   "NOT_FOUND",
		},
		// A body past the limit used to be cut there and its prefix — a
		// complete query, OQL needs no terminator — answered with 200.
		"oversized body": {
			pad:      maxQueryBody,
			status:   http.StatusRequestEntityTooLarge,
			code:     "INVALID_ARGUMENT",
			contains: "exceeds",
		},
		// THE seed bug: an unclassified error must be the server's fault
		// (500), never blamed on the client's query (400).
		"unclassified": {
			err:      errors.New("disk exploded"),
			status:   http.StatusInternalServerError,
			code:     "INTERNAL",
			contains: "disk exploded",
		},
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			fake := &fakeExecutor{err: tc.err}
			srv := httptest.NewServer(serveHandler(fake, reg, netout.NewSlowLog(4)))
			defer srv.Close()

			query := "FIND OUTLIERS FROM author JUDGED BY author.paper.venue;"
			if tc.pad > 0 {
				query = strings.TrimSuffix(query, ";") + strings.Repeat(" ", tc.pad) + ", author.paper.term TOP 3;"
			}
			resp, err := http.Post(srv.URL+"/query", "text/plain", strings.NewReader(query))
			if err != nil {
				t.Fatal(err)
			}
			if tc.pad > 0 && fake.lastCtx != nil {
				t.Fatal("the cut query reached the executor")
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body: %s)", resp.StatusCode, tc.status, body)
			}
			if resp.Header.Get("X-Request-Id") == "" {
				t.Fatal("response carries no X-Request-Id")
			}
			if tc.noBody {
				if len(body) != 0 {
					t.Fatalf("canceled response has a body nobody will read: %q", body)
				}
			} else {
				var je jsonError
				if err := json.Unmarshal(body, &je); err != nil {
					t.Fatalf("error body is not JSON: %v (%s)", err, body)
				}
				if je.Error.Code != tc.code {
					t.Fatalf("body code = %q, want %q", je.Error.Code, tc.code)
				}
				if je.Error.RequestID != resp.Header.Get("X-Request-Id") {
					t.Fatalf("body rid %q != header rid %q", je.Error.RequestID, resp.Header.Get("X-Request-Id"))
				}
				if tc.contains != "" && !strings.Contains(je.Error.Message, tc.contains) {
					t.Fatalf("message %q does not contain %q", je.Error.Message, tc.contains)
				}
			}
			sample := `netout_http_request_seconds_count{code="` + strconv.Itoa(tc.status) + `"}`
			if got := counterValue(t, reg, sample); got != 1 {
				t.Fatalf("%s = %v, want 1", sample, got)
			}
		})
	}
}

// A caller-supplied X-Request-Id is honored: echoed on the response, in the
// error body, and passed to the executor's context.
func TestServeHandlerRequestIDPropagation(t *testing.T) {
	reg := obs.NewRegistry()
	fake := &fakeExecutor{err: xerr.New(netout.CodeInvalidArgument, "bad")}
	srv := httptest.NewServer(serveHandler(fake, reg, netout.NewSlowLog(4)))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query",
		strings.NewReader("FIND OUTLIERS FROM author JUDGED BY author.paper.venue;"))
	req.Header.Set("X-Request-Id", "lb-assigned-77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "lb-assigned-77" {
		t.Fatalf("header rid = %q, want the caller's", got)
	}
	var je jsonError
	if err := json.Unmarshal(body, &je); err != nil {
		t.Fatal(err)
	}
	if je.Error.RequestID != "lb-assigned-77" {
		t.Fatalf("body rid = %q, want the caller's", je.Error.RequestID)
	}
	if obs.RequestIDFrom(fake.lastCtx) != "lb-assigned-77" {
		t.Fatalf("executor ctx rid = %q, want the caller's", obs.RequestIDFrom(fake.lastCtx))
	}
}

// Success path: the request ID rides the JSON result, and the 200 counter
// bumps.
func TestServeHandlerSuccessRequestID(t *testing.T) {
	reg := obs.NewRegistry()
	fake := &fakeExecutor{res: &netout.Result{
		Entries:        []core.Entry{{Name: "A", Score: 0.5}},
		CandidateCount: 3,
		ReferenceCount: 3,
	}}
	srv := httptest.NewServer(serveHandler(fake, reg, netout.NewSlowLog(4)))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "text/plain",
		strings.NewReader("FIND OUTLIERS FROM author JUDGED BY author.paper.venue;"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var jr jsonResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.RequestID == "" || jr.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("result rid %q != header rid %q", jr.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if got := counterValue(t, reg, `netout_http_request_seconds_count{code="200"}`); got != 1 {
		t.Fatalf("200 counter = %v, want 1", got)
	}
}

// The double-write fix: a result that cannot be encoded (NaN score) must
// yield one clean 500 JSON error — not a 200 with an error message glued
// onto a half-written body.
func TestServeHandlerEncodeFailureClean500(t *testing.T) {
	reg := obs.NewRegistry()
	fake := &fakeExecutor{res: &netout.Result{
		Entries: []core.Entry{{Name: "NaN", Score: math.NaN()}},
	}}
	srv := httptest.NewServer(serveHandler(fake, reg, netout.NewSlowLog(4)))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/query", "text/plain",
		strings.NewReader("FIND OUTLIERS FROM author JUDGED BY author.paper.venue;"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 for an unencodable result", resp.StatusCode)
	}
	var je jsonError
	if err := json.Unmarshal(body, &je); err != nil {
		t.Fatalf("encode-failure body is not clean JSON: %v (%s)", err, body)
	}
	if je.Error.Code != "INTERNAL" {
		t.Fatalf("body code = %q, want INTERNAL", je.Error.Code)
	}
	if got := counterValue(t, reg, `netout_http_request_seconds_count{code="500"}`); got != 1 {
		t.Fatalf("500 counter = %v, want 1", got)
	}
	if got := counterValue(t, reg, `netout_http_request_seconds_count{code="200"}`); got != 0 {
		t.Fatalf("200 counter = %v, want 0 (no success must be recorded)", got)
	}
}

// End to end against a REAL pool: once Close has begun, /query answers 503
// UNAVAILABLE — the seed returned 400, telling clients their query was bad
// while the server was the one shutting down.
func TestServeHandlerClosedPool503(t *testing.T) {
	g := smallGraph(t)
	reg := obs.NewRegistry()
	slow := netout.NewSlowLog(4)
	pool := netout.NewServePool(netout.NewEngine(g, netout.WithObs(reg), netout.WithEventSink(slow)), netout.ServeOptions{Workers: 1})
	srv := httptest.NewServer(serveHandler(pool, reg, slow))
	defer srv.Close()
	pool.Close()

	resp, err := http.Post(srv.URL+"/query", "text/plain",
		strings.NewReader(`FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue;`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from a closed pool (body: %s)", resp.StatusCode, body)
	}
	var je jsonError
	if err := json.Unmarshal(body, &je); err != nil {
		t.Fatal(err)
	}
	if je.Error.Code != "UNAVAILABLE" {
		t.Fatalf("body code = %q, want UNAVAILABLE", je.Error.Code)
	}
}
