package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"netout"
)

// The append encoder's contract is encoding/json's bytes: for any result the
// line it writes is json.Marshal's plus the Encoder's newline. Names are drawn
// from everything the string encoder special-cases, scores from every branch
// of the number formatter, and each optional field is present in some cases
// and absent in others.
func TestJSONEncoderMatchesEncodingJSON(t *testing.T) {
	names := []string{
		"", "plain", `<script>&"quoted"\back`, "tab\there\nnewline\rcr", "\b\f\x00\x01\x1f\x7f",
		"bad\xffutf8\xc3", "\xe2\x80", "line\u2028sep\u2029para", "κ(v,v) — naïve ☃ \U0001f600", "\u2027\u202a",
	}
	scores := []float64{
		0, math.Copysign(0, -1), 1, -1, 25, 1 << 53, 0.1, 1.0 / 3, 466.00000000000006,
		5e-324, 2.2250738585072014e-308, 1e-7, 9.999999e-7, 1e-6, 1.5e-9, 1e-10,
		1e20, 9.99999999999999e20, 1e21, 1.234e22, math.MaxFloat64, -1e-7, -1e21,
	}
	r := rand.New(rand.NewSource(1))
	for len(scores) < 400 {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			scores = append(scores, f)
		}
	}
	randomName := func() string {
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b) + names[r.Intn(len(names))]
	}
	var dst []byte
	for trial := 0; trial < 300; trial++ {
		jr := jsonResult{
			Partial:        trial%3 == 0,
			Skipped:        r.Intn(5),
			CandidateCount: r.Intn(1 << 20),
			ReferenceCount: r.Intn(1 << 20),
			TotalMicros:    r.Int63n(1 << 40),
		}
		if trial%2 == 0 {
			jr.RequestID, jr.TraceID = randomName(), names[trial%len(names)]
		}
		if trial%7 != 0 { // nil entries encode null
			jr.Entries = []jsonEntry{}
			for i := r.Intn(6); i > 0; i-- {
				jr.Entries = append(jr.Entries, jsonEntry{Rank: r.Intn(100) - 1, Name: randomName(), Score: scores[r.Intn(len(scores))]})
			}
		}
		if trial%4 == 1 {
			jr.Timing = &jsonTiming{SetRetrievalUs: r.Int63n(9), TraversalUs: -r.Int63n(9), TraversedVectors: r.Int63(), IndexedVectors: r.Int63n(3)}
			for i := r.Intn(4); i > 0; i-- {
				jr.Trace = append(jr.Trace, netout.QueryEventPhase{Phase: randomName(), DurationUs: r.Int63n(1000),
					TraversedVectors: r.Int63n(2), IndexedVectors: r.Int63n(2) * 7, CacheHits: r.Int63n(2) * 3, CacheMisses: r.Int63n(2)})
			}
		}
		want, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		dst, err = appendJSONResult(dst[:0], &jr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, dst, want)
		}
	}
	for _, name := range names {
		want, _ := json.Marshal(name)
		if got := appendJSONString(nil, name); !bytes.Equal(got, want) {
			t.Fatalf("string %q: got %s want %s", name, got, want)
		}
	}
	for _, f := range scores {
		want, _ := json.Marshal(f)
		if got, err := appendJSONFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("float %v: got %s (%v) want %s", f, got, err, want)
		}
	}
	// What Marshal refuses this refuses, with the same words and no bytes.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		jr := jsonResult{Entries: []jsonEntry{{Rank: 1, Name: "ok", Score: 1}, {Rank: 2, Name: "bad", Score: f}}}
		_, wantErr := json.Marshal(jr)
		got, err := appendJSONResult(nil, &jr)
		if err == nil || got != nil || err.Error() != wantErr.Error() {
			t.Fatalf("score %v: got %q, err %v; want no bytes and %v", f, got, err, wantErr)
		}
	}
}
