package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"netout"
)

// answer is the part of a reply that must match: the ranked names, the
// scores bit for bit, and the three counts.
type answer struct {
	names                           []string
	scores                          []uint64 // math.Float64bits
	candidates, references, skipped int
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.names, b.names) && slices.Equal(a.scores, b.scores) &&
		a.candidates == b.candidates && a.references == b.references && a.skipped == b.skipped
}

func answerOf(res *netout.Result) answer {
	a := answer{candidates: res.CandidateCount, references: res.ReferenceCount, skipped: len(res.Skipped)}
	for _, e := range res.Entries {
		a.names = append(a.names, e.Name)
		a.scores = append(a.scores, math.Float64bits(e.Score))
	}
	return a
}

// expectedAnswers computes the answer of every distinct request in-process,
// on the plainest path the engine has: baseline materializer, sequential
// execution. Every server configuration must reproduce it bit for bit.
func expectedAnswers(g *netout.Graph, lists ...[]string) (map[string]answer, error) {
	var distinct []string
	seen := map[string]bool{}
	for _, l := range lists {
		for _, q := range l {
			if !seen[q] {
				seen[q] = true
				distinct = append(distinct, q)
			}
		}
	}
	answers := make([]answer, len(distinct))
	errs := make([]error, len(distinct))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer cleanupOnPanic()
			eng := netout.NewEngine(g, netout.WithQueryParallelism(1))
			defer eng.Close()
			for i := w; i < len(distinct); i += workers {
				res, err := eng.Execute(distinct[i])
				if err != nil {
					errs[i] = fmt.Errorf("expected answer of %q: %w", distinct[i], err)
					continue
				}
				answers[i] = answerOf(res)
			}
		}(w)
	}
	wg.Wait()
	out := make(map[string]answer, len(distinct))
	for i, q := range distinct {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[q] = answers[i]
	}
	return out, nil
}

// reply is one request as the client saw it. Times are offsets from the
// harness's epoch.
type reply struct {
	start, end time.Duration
	status     int
	body       []byte
	err        error
}

// wire is the /query reply body.
type wire struct {
	Entries []struct {
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"entries"`
	Partial    bool  `json:"partial"`
	Skipped    int   `json:"skipped"`
	Candidates int   `json:"candidates"`
	References int   `json:"references"`
	TotalUs    int64 `json:"total_us"`
}

// check compares a reply with the expected answer and returns the engine's
// own total_us from the body. Any transport error, non-200 status, partial
// result or difference is a failed operation.
func (r reply) check(want answer) (totalUs int64, err error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", r.status, strings.TrimSpace(string(r.body)))
	}
	var w wire
	if err := json.Unmarshal(r.body, &w); err != nil {
		return 0, fmt.Errorf("reply body: %w", err)
	}
	if w.Partial {
		return 0, fmt.Errorf("partial result")
	}
	got := answer{candidates: w.Candidates, references: w.References, skipped: w.Skipped}
	for _, e := range w.Entries {
		got.names = append(got.names, e.Name)
		got.scores = append(got.scores, math.Float64bits(e.Score))
	}
	if !got.equal(want) {
		return 0, fmt.Errorf("answer differs from the expected one: got %d entries %v (%d/%d/%d), want %d entries %v (%d/%d/%d)",
			len(got.names), head(got.names), got.candidates, got.references, got.skipped,
			len(want.names), head(want.names), want.candidates, want.references, want.skipped)
	}
	return w.TotalUs, nil
}

func head(names []string) []string { return names[:min(len(names), 3)] }

// client drives one topology closed-loop: each connection sends its next
// request only after the previous reply has been read to the end.
type client struct {
	url   string
	epoch time.Time
	conns []*http.Client
}

func newClient(url string, conns int, epoch time.Time) *client {
	c := &client{url: url, epoch: epoch}
	for i := 0; i < conns; i++ {
		// One transport per closed-loop connection, so the connection count
		// is the stated one and not whatever a shared pool would open.
		c.conns = append(c.conns, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// replay sends the list once, request i on connection i mod conns, and
// returns the replies in list order with the wall time of the whole pass.
// With a tag, each request carries X-Request-Id "<tag>-<i>" and a
// traceparent whose trace id is unique to (tag, i), so its server-side wide
// event can be found from its span.
func (c *client) replay(list []string, tag string) ([]reply, time.Duration) {
	replies := make([]reply, len(list))
	tagHash := fnv.New64a()
	tagHash.Write([]byte(tag))
	traceHi := tagHash.Sum64()
	var wg sync.WaitGroup
	began := time.Now()
	for k, h := range c.conns {
		wg.Add(1)
		go func(k int, h *http.Client) {
			defer wg.Done()
			defer cleanupOnPanic()
			for i := k; i < len(list); i += len(c.conns) {
				replies[i] = c.send(h, list[i], tag, traceHi, i)
			}
		}(k, h)
	}
	wg.Wait()
	return replies, time.Since(began)
}

// roundTripUs is the median time, in microseconds, of n GET requests for url
// on the first connection: what HTTP over loopback costs a request that does
// no work on the server.
func (c *client) roundTripUs(url string, n int) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		start := time.Now()
		resp, err := c.conns[0].Get(url)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: %s %v", url, resp.Status, err)
		}
		times[i] = us64(time.Since(start))
	}
	return median(times), nil
}

func (c *client) send(h *http.Client, query, tag string, traceHi uint64, i int) (r reply) {
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(query))
	if err != nil {
		return reply{err: err}
	}
	if tag != "" {
		req.Header.Set("X-Request-Id", fmt.Sprintf("%s-%d", tag, i))
		req.Header.Set("traceparent", fmt.Sprintf("00-%016x%016x-%016x-01", traceHi, uint64(i)+1, uint64(i)+1))
	}
	r.start = time.Since(c.epoch)
	resp, err := h.Do(req)
	if err != nil {
		r.end = time.Since(c.epoch)
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	r.end = time.Since(c.epoch)
	resp.Body.Close()
	r.status = resp.StatusCode
	return r
}
