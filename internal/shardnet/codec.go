// Package shardnet is the network transport for the scatter–gather shard
// tier: a length-prefixed binary codec over the core.ShardRequest /
// core.ShardResponse protocol, a shard server in front of a process's
// ServePool, and a coordinator-side client with retry, deadline propagation
// and the one re-send a by-digest broadcast may need, implementing
// core.RemoteShard.
//
// # Wire format
//
// Every message is one frame: a big-endian uint32 payload length followed
// by the payload. The payload's first byte is the message kind (0x01
// request, 0x02 response); the rest is the fixed-order field encoding
// below. There is no negotiation and no per-field tagging — the protocol
// revision is carried IN the messages (core.ShardProtocolVersion) and both
// sides reject skew, so the encoding can stay positional and allocation-
// light.
//
//   - Integers are big-endian fixed width: uint64 two's complement for Go
//     ints (negative values round-trip), uint32 for element counts, one
//     byte for enums.
//   - Floats ship as their IEEE-754 bits (math.Float64bits), so NaN
//     payloads and ±Inf cross the wire bit-exactly — the determinism
//     contract extends across the network boundary.
//   - Strings and byte-slices are uint32 length + bytes.
//   - Sparse vectors are nnz + int32 indexes + float64 values.
//   - Meta-paths ship as their compact Key form (one byte per vertex type,
//     metapath.Path.Key / metapath.FromKey).
//   - Durations (deadline budget, shard wall time, materializer time) are
//     int64 nanoseconds. The deadline is a RELATIVE remaining budget, not
//     an absolute timestamp, so clock skew between coordinator and shard
//     hosts cannot stretch or collapse it.
//
// A request frame carries the ShardRequest, the reference broadcast
// (ShardBroadcast), the remaining deadline budget and the W3C traceparent.
// Protocol version 3 sends what a shard already holds by reference: the
// candidates are a byte 0 and the list of IDs, or a byte 1 and a run of the
// type's vertex list (type byte, lo, hi: 18 bytes whatever its length); the
// broadcast's form byte (core.RefForm) says whether every state follows in
// full or as its 32-byte SHA-256 digest. A response frame carries the
// ShardResponse including its classified Err/Code/Kind triple, which the
// coordinator reconstructs with xerr.FromWire, and the shard's plan lines.
//
// The decoder trusts nothing: every count is checked against the bytes
// actually remaining in the frame before allocation, so a hostile or
// corrupt peer can waste at most one frame's worth of memory
// (MaxFrameBytes), never an arbitrary allocation.
package shardnet

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"time"

	"netout/internal/core"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// MaxFrameBytes bounds a single frame (64 MiB). A legitimate broadcast over
// a graph this repo targets is far below it; anything larger is a corrupt
// length prefix or a hostile peer, and the connection is torn down.
const MaxFrameBytes = 64 << 20

const (
	kindRequest  byte = 0x01
	kindResponse byte = 0x02
)

// Request is one decoded request frame: the shard's share of a scattered
// query plus the per-call envelope the transport adds on top of the core
// protocol.
type Request struct {
	Req       *core.ShardRequest
	Broadcast *core.ShardBroadcast
	// Deadline is the remaining time budget the coordinator granted
	// (0 = unbounded). Relative, so host clock skew is irrelevant.
	Deadline time.Duration
	// Traceparent is the W3C trace context of the coordinator's query span
	// ("" when the query runs untraced).
	Traceparent string
}

// ---- encoding --------------------------------------------------------------

func appendU8(b []byte, v byte) []byte { return append(b, v) }
func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}
func appendInt(b []byte, v int) []byte   { return appendU64(b, uint64(int64(v))) }
func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendFloats(b []byte, fs []float64) []byte {
	b = appendU32(b, uint32(len(fs)))
	for _, f := range fs {
		b = appendF64(b, f)
	}
	return b
}

func appendVertices(b []byte, vs []hin.VertexID) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(int32(v)))
	}
	return b
}

func appendVector(b []byte, v sparse.Vector) []byte {
	b = appendU32(b, uint32(len(v.Idx)))
	for _, i := range v.Idx {
		b = appendU32(b, uint32(i))
	}
	for _, x := range v.Val {
		b = appendF64(b, x)
	}
	return b
}

func appendVectors(b []byte, vs []sparse.Vector) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendVector(b, v)
	}
	return b
}

func appendRequest(b []byte, r *Request) []byte {
	req := r.Req
	b = appendU8(b, kindRequest)
	b = appendInt(b, req.Version)
	b = appendString(b, req.QueryID)
	b = appendInt(b, req.Shard)
	b = appendInt(b, req.TopK)
	b = appendU8(b, byte(req.Measure))
	b = appendU8(b, byte(req.Combine))
	b = appendFloats(b, req.Weights)
	b = appendU32(b, uint32(len(req.Paths)))
	for _, p := range req.Paths {
		b = appendString(b, p.Key())
	}
	if run := req.Run; run != nil {
		b = append(b, 1, byte(run.Type))
		b = appendInt(appendInt(b, run.Lo), run.Hi)
	} else {
		b = appendVertices(appendU8(b, 0), req.Candidates)
	}
	bc := r.Broadcast
	if bc == nil {
		bc = &core.ShardBroadcast{}
	}
	b = appendU32(b, uint32(int32(bc.Stride)))
	b = appendU8(b, byte(bc.Form))
	b = appendU32(b, uint32(len(bc.Refs)))
	for _, st := range bc.Refs {
		if bc.Form == core.RefsDigest {
			b = append(b, st.Digest[:]...)
			continue
		}
		b = appendVector(b, st.Agg)
		b = appendVectors(b, st.Refs)
		b = appendFloats(b, st.RefVis)
	}
	b = appendI64(b, int64(r.Deadline))
	b = appendString(b, r.Traceparent)
	return b
}

func appendResponse(b []byte, resp *core.ShardResponse) []byte {
	b = appendU8(b, kindResponse)
	b = appendInt(b, resp.Version)
	b = appendString(b, resp.QueryID)
	b = appendInt(b, resp.Shard)
	b = appendU32(b, uint32(len(resp.Entries)))
	for _, e := range resp.Entries {
		b = appendU32(b, uint32(int32(e.Vertex)))
		b = appendString(b, e.Name)
		b = appendF64(b, e.Score)
	}
	b = appendVertices(b, resp.Skipped)
	b = appendInt(b, resp.Done)
	b = appendString(b, resp.Err)
	b = appendString(b, string(resp.Code))
	b = appendU8(b, byte(resp.Kind))
	b = appendI64(b, int64(resp.Stats.IndexedTime))
	b = appendI64(b, int64(resp.Stats.TraversalTime))
	b = appendI64(b, resp.Stats.IndexedVectors)
	b = appendI64(b, resp.Stats.TraversedVectors)
	b = appendI64(b, int64(resp.Duration))
	b = appendU32(b, uint32(len(resp.Plan)))
	for _, line := range resp.Plan {
		b = appendString(b, line)
	}
	return b
}

// ---- decoding --------------------------------------------------------------

// decoder walks one frame payload with sticky error state: the first
// malformed read poisons it and every later read returns zero values, so
// call sites stay linear and the single error check happens at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = xerr.Newf(xerr.Internal, "shardnet: malformed frame: "+format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("need %d bytes, have %d", n, d.remaining())
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *decoder) int() int     { return int(int64(d.u64())) }
func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and validates it against the bytes left in
// the frame at minBytes per element, so a forged count cannot drive an
// oversized allocation.
func (d *decoder) count(minBytes int) int {
	n := int(d.u32())
	if d.err == nil && minBytes > 0 && n > d.remaining()/minBytes {
		d.fail("count %d exceeds frame (%d bytes left)", n, d.remaining())
		return 0
	}
	return n
}

func (d *decoder) string() string {
	n := d.count(1)
	s := d.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = d.f64()
	}
	return fs
}

func (d *decoder) vertices() []hin.VertexID {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]hin.VertexID, n)
	for i := range vs {
		vs[i] = hin.VertexID(int32(d.u32()))
	}
	return vs
}

func (d *decoder) vector() sparse.Vector {
	n := d.count(12) // 4 index + 8 value bytes per nnz
	if d.err != nil || n == 0 {
		return sparse.Vector{}
	}
	v := sparse.Vector{Idx: make([]int32, n), Val: make([]float64, n)}
	for i := range v.Idx {
		v.Idx[i] = int32(d.u32())
	}
	for i := range v.Val {
		v.Val[i] = d.f64()
	}
	return v
}

func (d *decoder) vectors() []sparse.Vector {
	n := d.count(4) // ≥ one empty-vector header each
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]sparse.Vector, n)
	for i := range vs {
		vs[i] = d.vector()
	}
	return vs
}

func decodeRequest(payload []byte) (*Request, error) {
	d := &decoder{b: payload}
	req := &core.ShardRequest{}
	req.Version = d.int()
	req.QueryID = d.string()
	req.Shard = d.int()
	req.TopK = d.int()
	req.Measure = core.Measure(d.u8())
	req.Combine = core.Combination(d.u8())
	req.Weights = d.floats()
	nPaths := d.count(4)
	if d.err == nil && nPaths > 0 {
		req.Paths = make([]metapath.Path, nPaths)
		for i := range req.Paths {
			req.Paths[i] = metapath.FromKey(d.string())
		}
	}
	switch d.u8() {
	case 0:
		req.Candidates = d.vertices()
	case 1:
		req.Run = &core.CandidateRun{Type: hin.TypeID(d.u8()), Lo: d.int(), Hi: d.int()}
	default:
		d.fail("unknown candidate form")
	}
	bc := &core.ShardBroadcast{Stride: int32(d.u32()), Form: core.RefForm(d.u8())}
	minRef := 12 // an empty state: three counts
	switch bc.Form {
	case core.RefsFull, core.RefsKeep:
	case core.RefsDigest:
		minRef = len(core.ShardRefState{}.Digest)
	default:
		d.fail("unknown reference form %d", bc.Form)
	}
	nRefs := d.count(minRef)
	if d.err == nil && nRefs > 0 {
		bc.Refs = make([]core.ShardRefState, nRefs)
		for i := range bc.Refs {
			if bc.Form == core.RefsDigest {
				copy(bc.Refs[i].Digest[:], d.take(minRef))
				continue
			}
			bc.Refs[i] = core.ShardRefState{
				Agg:    d.vector(),
				Refs:   d.vectors(),
				RefVis: d.floats(),
			}
		}
	}
	r := &Request{Req: req, Broadcast: bc}
	r.Deadline = time.Duration(d.i64())
	r.Traceparent = d.string()
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes", d.remaining())
	}
	return r, d.err
}

func decodeResponse(payload []byte) (*core.ShardResponse, error) {
	d := &decoder{b: payload}
	resp := &core.ShardResponse{}
	resp.Version = d.int()
	resp.QueryID = d.string()
	resp.Shard = d.int()
	nEntries := d.count(16)
	if d.err == nil && nEntries > 0 {
		resp.Entries = make([]core.Entry, nEntries)
		for i := range resp.Entries {
			resp.Entries[i] = core.Entry{
				Vertex: hin.VertexID(int32(d.u32())),
				Name:   d.string(),
				Score:  d.f64(),
			}
		}
	}
	resp.Skipped = d.vertices()
	resp.Done = d.int()
	resp.Err = d.string()
	resp.Code = xerr.Code(d.string())
	resp.Kind = xerr.Kind(d.u8())
	resp.Stats.IndexedTime = time.Duration(d.i64())
	resp.Stats.TraversalTime = time.Duration(d.i64())
	resp.Stats.IndexedVectors = d.i64()
	resp.Stats.TraversedVectors = d.i64()
	resp.Duration = time.Duration(d.i64())
	if n := d.count(4); d.err == nil && n > 0 {
		resp.Plan = make([]string, n)
		for i := range resp.Plan {
			resp.Plan[i] = d.string()
		}
	}
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes", d.remaining())
	}
	return resp, d.err
}

// ---- framing ---------------------------------------------------------------

// frames recycles encode buffers, so encoding allocates nothing once a buffer
// has grown to the traffic's frame size.
var frames = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame sends one length-prefixed payload, built by encode in a pooled
// buffer behind four bytes reserved for the prefix. Prefix and payload go out
// in a single Write so the transport never interleaves a partial frame from
// concurrent misuse (callers still own per-connection serialization).
func writeFrame(w io.Writer, encode func([]byte) []byte) error {
	f := frames.Get().(*[]byte)
	defer frames.Put(f)
	*f = encode(append((*f)[:0], 0, 0, 0, 0))
	frame := *f
	if len(frame)-4 > MaxFrameBytes {
		return xerr.Newf(xerr.Internal, "shardnet: frame of %d bytes exceeds MaxFrameBytes", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := w.Write(frame); err != nil {
		return xerr.Wrap(xerr.Unavailable, err)
	}
	return nil
}

// readFrame reads one length-prefixed payload of the expected kind into *buf,
// grown when the frame needs it: the payload is valid until the next read into
// the buffer, and the decoders copy out everything they return. A clean EOF before any byte of the length prefix returns io.EOF
// unwrapped — that is a peer closing an idle connection, not an error;
// everything else is classified (UNAVAILABLE for transport faults, INTERNAL
// for protocol violations).
func readFrame(r io.Reader, wantKind byte, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, xerr.Wrap(xerr.Unavailable, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameBytes {
		return nil, xerr.Newf(xerr.Internal, "shardnet: frame length %d outside (0, %d]", n, MaxFrameBytes)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, xerr.Wrap(xerr.Unavailable, err)
	}
	if payload[0] != wantKind {
		return nil, xerr.Newf(xerr.Internal, "shardnet: frame kind 0x%02x, want 0x%02x", payload[0], wantKind)
	}
	return payload[1:], nil
}

// WriteRequest sends one request frame.
func WriteRequest(w io.Writer, r *Request) error {
	return writeFrame(w, func(b []byte) []byte { return appendRequest(b, r) })
}

// ReadRequest reads one request frame. io.EOF (unwrapped) means the peer
// closed the connection cleanly between requests.
func ReadRequest(r io.Reader) (*Request, error) {
	return readMessage(r, new([]byte), kindRequest, decodeRequest)
}

// WriteResponse sends one response frame.
func WriteResponse(w io.Writer, resp *core.ShardResponse) error {
	return writeFrame(w, func(b []byte) []byte { return appendResponse(b, resp) })
}

// ReadResponse reads one response frame.
func ReadResponse(r io.Reader) (*core.ShardResponse, error) {
	return readMessage(r, new([]byte), kindResponse, decodeResponse)
}

// readMessage reads and decodes one frame through buf, the frame buffer a
// connection reuses from message to message.
func readMessage[T any](r io.Reader, buf *[]byte, kind byte, decode func([]byte) (*T, error)) (*T, error) {
	payload, err := readFrame(r, kind, buf)
	if err != nil {
		return nil, err
	}
	return decode(payload)
}
