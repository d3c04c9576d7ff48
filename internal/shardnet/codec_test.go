package shardnet

// Codec round-trip properties: every field of both message kinds must
// survive encode→decode exactly, including the payloads the determinism
// contract cares about most — NaN and ±Inf float bits — and the classified
// error triple for every taxonomy code. The decoder must reject, never
// panic on and never over-allocate for corrupt frames.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"netout/internal/core"
	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// floatsEqual compares float slices by their IEEE-754 bits, so NaN == NaN
// and -0.0 != +0.0 — the comparison the wire contract is written against.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func vecEqual(a, b sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return false
		}
	}
	return floatsEqual(a.Val, b.Val)
}

func vecsEqual(a, b []sparse.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !vecEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// awkwardFloats is the float palette every generated message draws from:
// the values a lossy or text-based codec would mangle first.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -1e-308, 1e308,
	math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
}

func randFloats(r *rand.Rand, n int) []float64 {
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = awkwardFloats[r.Intn(len(awkwardFloats))]
	}
	return fs
}

func randVector(r *rand.Rand) sparse.Vector {
	n := r.Intn(5)
	if n == 0 {
		return sparse.Vector{}
	}
	v := sparse.Vector{Idx: make([]int32, n), Val: randFloats(r, n)}
	for i := range v.Idx {
		v.Idx[i] = int32(r.Intn(1 << 20))
	}
	return v
}

func randRequest(r *rand.Rand) *Request {
	req := &core.ShardRequest{
		Version: core.ShardProtocolVersion,
		QueryID: strings.Repeat("q", r.Intn(20)),
		Shard:   r.Intn(8),
		TopK:    r.Intn(100),
		Measure: core.Measure(r.Intn(3)),
		Combine: core.Combination(r.Intn(2)),
	}
	nPaths := 1 + r.Intn(3)
	req.Weights = randFloats(r, nPaths)
	for i := 0; i < nPaths; i++ {
		key := make([]byte, 2+r.Intn(4))
		for j := range key {
			key[j] = byte(r.Intn(4))
		}
		req.Paths = append(req.Paths, metapath.FromKey(string(key)))
	}
	for i := 0; i < r.Intn(10); i++ {
		req.Candidates = append(req.Candidates, hin.VertexID(r.Intn(1<<20)))
	}
	b := &core.ShardBroadcast{Stride: int32(r.Intn(1 << 20))}
	for i := 0; i < 1+r.Intn(3); i++ {
		st := core.ShardRefState{Agg: randVector(r)}
		for j := 0; j < r.Intn(3); j++ {
			st.Refs = append(st.Refs, randVector(r))
		}
		st.RefVis = randFloats(r, len(st.Refs))
		b.Refs = append(b.Refs, st)
	}
	return &Request{
		Req:         req,
		Broadcast:   b,
		Deadline:    time.Duration(r.Int63n(int64(time.Hour))),
		Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
	}
}

func requestsEqual(t *testing.T, a, b *Request) {
	t.Helper()
	ra, rb := a.Req, b.Req
	if ra.Version != rb.Version || ra.QueryID != rb.QueryID || ra.Shard != rb.Shard ||
		ra.TopK != rb.TopK || ra.Measure != rb.Measure || ra.Combine != rb.Combine {
		t.Fatalf("request header diverges:\n%+v\n%+v", ra, rb)
	}
	if !floatsEqual(ra.Weights, rb.Weights) {
		t.Fatalf("weights diverge: %v vs %v", ra.Weights, rb.Weights)
	}
	if len(ra.Paths) != len(rb.Paths) {
		t.Fatalf("path count diverges: %d vs %d", len(ra.Paths), len(rb.Paths))
	}
	for i := range ra.Paths {
		if ra.Paths[i].Key() != rb.Paths[i].Key() {
			t.Fatalf("path %d diverges: %q vs %q", i, ra.Paths[i].Key(), rb.Paths[i].Key())
		}
	}
	if len(ra.Candidates) != len(rb.Candidates) {
		t.Fatalf("candidate count diverges")
	}
	for i := range ra.Candidates {
		if ra.Candidates[i] != rb.Candidates[i] {
			t.Fatalf("candidate %d diverges", i)
		}
	}
	ba, bb := a.Broadcast, b.Broadcast
	if ba.Stride != bb.Stride || len(ba.Refs) != len(bb.Refs) {
		t.Fatalf("broadcast shape diverges")
	}
	for i := range ba.Refs {
		if !vecEqual(ba.Refs[i].Agg, bb.Refs[i].Agg) ||
			!vecsEqual(ba.Refs[i].Refs, bb.Refs[i].Refs) ||
			!floatsEqual(ba.Refs[i].RefVis, bb.Refs[i].RefVis) {
			t.Fatalf("broadcast ref state %d diverges", i)
		}
	}
	if a.Deadline != b.Deadline || a.Traceparent != b.Traceparent {
		t.Fatalf("envelope diverges: %v/%q vs %v/%q", a.Deadline, a.Traceparent, b.Deadline, b.Traceparent)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		in := randRequest(r)
		var buf bytes.Buffer
		if err := WriteRequest(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		requestsEqual(t, in, out)
		if buf.Len() != 0 {
			t.Fatalf("round %d: %d bytes left after one frame", i, buf.Len())
		}
	}
}

func randResponse(r *rand.Rand) *core.ShardResponse {
	resp := &core.ShardResponse{
		Version:    core.ShardProtocolVersion,
		QueryID:    strings.Repeat("r", r.Intn(20)),
		Shard:      r.Intn(8),
		Candidates: r.Intn(1000),
		Done:       r.Intn(1000),
		Duration:   time.Duration(r.Int63n(int64(time.Minute))),
	}
	for i := 0; i < r.Intn(8); i++ {
		resp.Entries = append(resp.Entries, core.Entry{
			Vertex: hin.VertexID(r.Intn(1 << 20)),
			Name:   strings.Repeat("n", r.Intn(12)),
			Score:  awkwardFloats[r.Intn(len(awkwardFloats))],
		})
	}
	for i := 0; i < r.Intn(6); i++ {
		resp.Skipped = append(resp.Skipped, hin.VertexID(r.Intn(1<<20)))
	}
	resp.Stats = core.MatStats{
		IndexedTime:      time.Duration(r.Int63n(int64(time.Second))),
		TraversalTime:    time.Duration(r.Int63n(int64(time.Second))),
		IndexedVectors:   r.Int63n(1 << 30),
		TraversedVectors: r.Int63n(1 << 30),
	}
	return resp
}

func responsesEqual(t *testing.T, a, b *core.ShardResponse) {
	t.Helper()
	if a.Version != b.Version || a.QueryID != b.QueryID || a.Shard != b.Shard ||
		a.Candidates != b.Candidates || a.Done != b.Done ||
		a.Err != b.Err || a.Code != b.Code || a.Kind != b.Kind ||
		a.Stats != b.Stats || a.Duration != b.Duration {
		t.Fatalf("response diverges:\n%+v\n%+v", a, b)
	}
	if len(a.Entries) != len(b.Entries) || len(a.Skipped) != len(b.Skipped) {
		t.Fatalf("response payload shape diverges")
	}
	for i := range a.Entries {
		if a.Entries[i].Vertex != b.Entries[i].Vertex || a.Entries[i].Name != b.Entries[i].Name ||
			math.Float64bits(a.Entries[i].Score) != math.Float64bits(b.Entries[i].Score) {
			t.Fatalf("entry %d diverges: %+v vs %+v", i, a.Entries[i], b.Entries[i])
		}
	}
	for i := range a.Skipped {
		if a.Skipped[i] != b.Skipped[i] {
			t.Fatalf("skip %d diverges", i)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		in := randResponse(r)
		var buf bytes.Buffer
		if err := WriteResponse(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		responsesEqual(t, in, out)
	}
}

// The classified error triple survives the wire for every taxonomy code and
// kind — this is what lets the coordinator reconstruct a remote failure
// with xerr.FromWire and apply the same degradation rules as in-process.
func TestResponseErrorTripleRoundTrip(t *testing.T) {
	codes := []xerr.Code{
		xerr.InvalidArgument, xerr.NotFound, xerr.ResourceExhausted,
		xerr.DeadlineExceeded, xerr.Canceled, xerr.Unavailable, xerr.Internal,
	}
	for _, code := range codes {
		for _, kind := range []xerr.Kind{xerr.KindFailure, xerr.KindDefect, xerr.KindInterrupt} {
			in := &core.ShardResponse{
				Version: core.ShardProtocolVersion,
				Err:     "boom: " + string(code),
				Code:    code,
				Kind:    kind,
			}
			var buf bytes.Buffer
			if err := WriteResponse(&buf, in); err != nil {
				t.Fatal(err)
			}
			out, err := ReadResponse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			responsesEqual(t, in, out)
			rec := xerr.FromWire(out.Code, out.Kind, out.Err)
			if xerr.CodeOf(rec) != code || xerr.KindOf(rec) != kind || rec.Error() != in.Err {
				t.Fatalf("FromWire(%s, %d) reconstructed %v", code, kind, rec)
			}
		}
	}
}

// Multiple frames on one stream decode in order — the per-connection serial
// request/response loop depends on exact framing.
func TestFramesAreSelfDelimiting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	in := make([]*core.ShardResponse, 5)
	for i := range in {
		in[i] = randResponse(r)
		if err := WriteResponse(&buf, in[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range in {
		out, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		responsesEqual(t, in[i], out)
	}
	if _, err := ReadResponse(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read past last frame = %v, want io.EOF", err)
	}
}

// A clean EOF before any header byte is io.EOF (idle peer hang-up); a
// truncated header or body is a classified UNAVAILABLE transport fault.
func TestReadFrameEOFClassification(t *testing.T) {
	if _, err := ReadResponse(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
	if _, err := ReadResponse(bytes.NewReader([]byte{0, 0})); xerr.CodeOf(err) != xerr.Unavailable {
		t.Fatalf("truncated header = %v, want UNAVAILABLE", err)
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, &core.ShardResponse{Version: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); xerr.CodeOf(err) != xerr.Unavailable {
		t.Fatalf("truncated body = %v, want UNAVAILABLE", err)
	}
}

// Protocol violations — oversized or zero length prefixes, a response frame
// where a request is expected — are INTERNAL, distinct from transport loss.
func TestReadFrameRejectsProtocolViolations(t *testing.T) {
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrameBytes+1)
	if _, err := ReadResponse(bytes.NewReader(huge)); xerr.CodeOf(err) != xerr.Internal {
		t.Fatalf("oversize length = %v, want INTERNAL", err)
	}
	if _, err := ReadResponse(bytes.NewReader(make([]byte, 4))); xerr.CodeOf(err) != xerr.Internal {
		t.Fatalf("zero length = %v, want INTERNAL", err)
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, &core.ShardResponse{Version: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(bytes.NewReader(buf.Bytes())); xerr.CodeOf(err) != xerr.Internal {
		t.Fatalf("kind mismatch = %v, want INTERNAL", err)
	}
}

// corrupt decodes random mutations of valid frames: the decoder must return
// a typed error or a message, never panic, and a forged element count must
// not drive an allocation beyond the frame's own size.
func TestDecoderSurvivesCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var reqBuf, respBuf bytes.Buffer
	if err := WriteRequest(&reqBuf, randRequest(r)); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponse(&respBuf, randResponse(r)); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []struct {
		name  string
		frame []byte
		read  func(io.Reader) error
	}{
		{"request", reqBuf.Bytes(), func(rd io.Reader) error { _, err := ReadRequest(rd); return err }},
		{"response", respBuf.Bytes(), func(rd io.Reader) error { _, err := ReadResponse(rd); return err }},
	} {
		t.Run(seed.name, func(t *testing.T) {
			for i := 0; i < 2000; i++ {
				frame := append([]byte(nil), seed.frame...)
				switch r.Intn(3) {
				case 0: // flip random bytes (past the length prefix, which readFrame owns)
					for j := 0; j <= r.Intn(4); j++ {
						frame[4+r.Intn(len(frame)-4)] ^= byte(1 + r.Intn(255))
					}
				case 1: // truncate, fixing the length prefix so the decoder sees it
					n := 5 + r.Intn(len(frame)-5)
					frame = frame[:n]
					binary.BigEndian.PutUint32(frame, uint32(n-4))
				case 2: // forge an interior count to a huge value
					off := 5 + r.Intn(len(frame)-9)
					binary.BigEndian.PutUint32(frame[off:], uint32(1<<31-1))
				}
				err := seed.read(bytes.NewReader(frame))
				if err == nil {
					continue // a mutation can still be a valid frame
				}
				if c := xerr.CodeOf(err); c != xerr.Internal && c != xerr.Unavailable {
					t.Fatalf("iteration %d: corrupt frame returned unclassified error %v", i, err)
				}
			}
		})
	}
}

// FuzzReadRequest and FuzzReadResponse run the decoders over arbitrary
// bytes. `go test` exercises the seeds; `go test -fuzz` explores.
func FuzzReadRequest(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, randRequest(rand.New(rand.NewSource(5)))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadRequest(bytes.NewReader(data))
	})
}

func FuzzReadResponse(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, randResponse(rand.New(rand.NewSource(6)))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadResponse(bytes.NewReader(data))
	})
}

// A connection reads every frame into one buffer (Server.serveConn,
// Client.attempt), so nothing a decoder returns may alias it: each message
// must survive the buffer being overwritten. The frames themselves are what
// they were before buffers were pooled — the length prefix, then the payload
// appendRequest/appendResponse build from nil — and a buffer that has grown
// to a frame's size is the one the next frame lands in.
func TestDecodedMessagesDoNotAliasFrameBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var wire bytes.Buffer
	var payload []byte
	scribble := func() {
		payload = payload[:cap(payload)]
		for i := range payload {
			payload[i] ^= 0xA5
		}
	}
	framed := func(payload []byte) bool {
		got := wire.Bytes()
		return binary.BigEndian.Uint32(got) == uint32(len(payload)) && bytes.Equal(got[4:], payload)
	}
	for i := 0; i < 100; i++ {
		req, resp := randRequest(r), randResponse(r)
		if err := WriteRequest(&wire, req); err != nil {
			t.Fatal(err)
		}
		if !framed(appendRequest(nil, req)) {
			t.Fatalf("round %d: request frame is not prefix + payload", i)
		}
		gotReq, err := readMessage(&wire, &payload, kindRequest, decodeRequest)
		if err != nil {
			t.Fatal(err)
		}
		scribble()
		requestsEqual(t, req, gotReq)

		if err := WriteResponse(&wire, resp); err != nil {
			t.Fatal(err)
		}
		want := appendResponse(nil, resp)
		if !framed(want) {
			t.Fatalf("round %d: response frame is not prefix + payload", i)
		}
		before := &payload[:1][0]
		gotResp, err := readMessage(&wire, &payload, kindResponse, decodeResponse)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) <= cap(payload) && before != &payload[:1][0] {
			t.Fatalf("round %d: a %d-byte frame did not reuse the connection's %d-byte buffer", i, len(want), cap(payload))
		}
		scribble()
		responsesEqual(t, resp, gotResp)
	}
}

// scanRequest is the shape of a scan_shards call: one feature path, cands
// candidates and a reference aggregate of nnz coordinates.
func scanRequest(cands, nnz int) *Request {
	req := &core.ShardRequest{Version: core.ShardProtocolVersion, QueryID: "q", TopK: 10,
		Weights: []float64{1}, Paths: []metapath.Path{metapath.FromKey("\x00\x01\x02")}}
	for i := 0; i < cands; i++ {
		req.Candidates = append(req.Candidates, hin.VertexID(i))
	}
	agg := sparse.Vector{Idx: make([]int32, nnz), Val: make([]float64, nnz)}
	for i := range agg.Idx {
		agg.Idx[i], agg.Val[i] = int32(i), float64(i)
	}
	return &Request{Req: req, Broadcast: &core.ShardBroadcast{Refs: []core.ShardRefState{{Agg: agg}}}}
}

// The codec's allocation ceilings — deterministic where nanoseconds are not,
// so they gate in `make test`. Encoding builds the frame in a pooled buffer:
// a warm pool leaves nothing to allocate but the odd slot the runtime drops.
// Decoding into a connection's buffer allocates the values it returns and
// nothing that grows with the frame: twice the candidates and coordinates
// cost the same number of allocations.
func TestCodecAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	var wire bytes.Buffer
	req := scanRequest(2000, 4000)
	encode := func() {
		wire.Reset()
		if err := WriteRequest(&wire, req); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if n := testing.AllocsPerRun(100, encode); n > 2 {
		t.Errorf("encoding a %d-byte request: %v allocations with a warm pool, ceiling 2", wire.Len(), n)
	}
	decodeAllocs := func(r *Request) float64 {
		wire.Reset()
		if err := WriteRequest(&wire, r); err != nil {
			t.Fatal(err)
		}
		frame, rd := bytes.Clone(wire.Bytes()), bytes.NewReader(nil)
		var payload []byte
		decode := func() {
			rd.Reset(frame)
			if _, err := readMessage(rd, &payload, kindRequest, decodeRequest); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		return testing.AllocsPerRun(100, decode)
	}
	small, large := decodeAllocs(req), decodeAllocs(scanRequest(4000, 8000))
	if small != large || small > 16 {
		t.Errorf("decoding: %v allocations for one frame, %v for one twice its size; want equal and at most 16", small, large)
	}
	resp := randResponse(rand.New(rand.NewSource(8)))
	respond := func() {
		wire.Reset()
		if err := WriteResponse(&wire, resp); err != nil {
			t.Fatal(err)
		}
	}
	respond()
	if n := testing.AllocsPerRun(100, respond); n > 2 {
		t.Errorf("encoding a response: %v allocations with a warm pool, ceiling 2", n)
	}
}

// A shard receives the same S on every repeat of a scan, each time decoded
// into arrays of its own. With the norms warm, the first request walks S back
// in scratch, the second walks it again and keeps N in the baseline's norm
// table, and the third only reads N there — no traversal — found by S's bits,
// not its arrays. All three answer the cold request's bits.
func TestDecodedRepeatGathersFromTheKeptWalk(t *testing.T) {
	cfg := gen.Scaled(1)
	cfg.Seed = 1
	g, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	all := g.VerticesOfType(p.Source())
	s, _, err := metapath.NewTraverser(g).SetVector(context.Background(), p, all)
	if err != nil {
		t.Fatal(err)
	}
	wire := &Request{
		Req: &core.ShardRequest{Version: core.ShardProtocolVersion, TopK: 5, Measure: core.MeasureNetOut,
			Combine: core.CombineAverage, Weights: []float64{1}, Paths: []metapath.Path{p}, Candidates: all},
		Broadcast: &core.ShardBroadcast{Stride: int32(g.NumVertices()), Refs: []core.ShardRefState{{Agg: s}}},
	}
	mat := core.NewBaseline(g) // the production crossover: the whole author type passes it
	serve := func() *core.ShardResponse {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, wire); err != nil {
			t.Fatal(err)
		}
		r, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resp := core.ServeShardRequest(context.Background(), g, mat, r.Req, r.Broadcast)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp
	}
	cold := serve()
	if cold.Stats.TraversedVectors != int64(len(all)) {
		t.Fatalf("cold request traversed %d vectors, want one walk per candidate", cold.Stats.TraversedVectors)
	}
	for i, traversed := range []int64{1, 1, 0} {
		resp := serve()
		if resp.Stats.TraversedVectors != traversed {
			t.Fatalf("repeat %d traversed %d vectors, want %d", i+1, resp.Stats.TraversedVectors, traversed)
		}
		if len(resp.Entries) != len(cold.Entries) || !slices.Equal(resp.Skipped, cold.Skipped) {
			t.Fatalf("repeat %d: %d entries, %d skipped; cold %d, %d", i+1, len(resp.Entries), len(resp.Skipped), len(cold.Entries), len(cold.Skipped))
		}
		for j, e := range cold.Entries {
			if resp.Entries[j].Vertex != e.Vertex || math.Float64bits(resp.Entries[j].Score) != math.Float64bits(e.Score) {
				t.Fatalf("repeat %d: entry %d = %+v, want %+v", i+1, j, resp.Entries[j], e)
			}
		}
	}
}
