package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
)

// candidateSide is the candidate-side twin of referenceSide: built once per
// query — per request on a shard, over the shard's slice — it is what
// scoreRange walks, a chunk at a time. Read-only once built: a query's local
// ranges share one and bring their own materializer and candBuf.
//
// Two ways to score, chosen from what the code can observe:
//
//   - From vectors: Φ_P(v) per (path, candidate) — held by the reference pass
//     when Sr ≡ Sc, loaded through the materializer otherwise — scored by the
//     query's scorers. Any measure, combination and materializer.
//   - From norms, where referenceSide could propagate (NetOut, CombineAverage,
//     a setMaterializer): Ω_P(v) = Φ_P(v)·S / ‖Φ_P(v)‖², and the denominator
//     is a per-(path, vertex) scalar the materializer memoizes (visTable).
//     A path with enough of the slice's norms known (visTable.known) also
//     gets every numerator at once: N = M_P·S is S propagated back along
//     P⁻¹ (Traverser.SeedValues; edges are symmetric), one walk instead of
//     one per candidate, its last hop gathered at this side's candidates
//     only — or no walk at all, N read where the norm table keeps it for an
//     S it has seen before (baseline.seedValues). A candidate whose norm is
//     known then costs a table read and a division; one whose norm is not
//     costs the walk it always did — Φ drained into scratch when only its
//     norm is wanted — and leaves the norm behind. N is exact or absent:
//     SeedValues reports when a count it used reached 2⁵³ and the path then
//     keeps walking per vertex. Below 2⁵³ every term of Φ·S is a non-negative
//     integer bounded by N[v], so every product and partial sum of Dot is
//     exact in any order, fused or not, and N[v] is Float64bits-identical to
//     it; the norm is the very float64 Norm2Sq returned. Scores are therefore
//     the per-vertex path's bit for bit.
type candidateSide struct {
	g       *hin.Graph
	scorers *queryScorers
	paths   []metapath.Path
	cands   []hin.VertexID
	// held[m][i] is Φ_paths[m](cands[i]) when the reference pass already
	// loaded the candidates' vectors (nil otherwise).
	held [][]sparse.Vector
	// memo[m] is path m's norm table (nil entry: none fits) and num[m][i] its
	// numerator N[cands[i]] (nil: the path walks per vertex). memo itself is
	// nil when candidates are scored from vectors.
	memo []*visPath
	num  [][]float64
	// numer[m] says where num[m] came from, for the query's plan lines:
	// "memo" (the table's kept N), "walk" (S walked back by this query), or
	// "vertex" (a walk per candidate) with the crossover's inputs.
	numer []string
	// ifq receives scoreRange's chunk progress (nil-safe; nil on a shard
	// server).
	ifq *obs.InflightQuery
}

// The crossover of the reverse propagation, as the visTable applies it
// (visTable.known): a path is propagated when the slice holds at least
// candSideMinKnown candidates whose norm is known and they are at least
// 1/candSideMinShare of the source type.
//
// The share is measured: in BenchmarkCandidateSide (BENCH_kernel.json) the
// warm propagated scan is 3.8–18× ahead of the per-vertex one from 50 % of the
// type up on all three scan paths, 2.0–4.2× ahead at 25 %, and level with it
// at 10 % (0.74–1.1×; the run that set the share read 1.3–2.8× behind).
// The count is a floor under it for the paper's sake: the anchor-derived sets
// of Table 4 cover up to 60 % of the small venue and term types, where the
// share alone would propagate them, but stay under 600 candidates at every
// scale cmd/experiments runs — so Baseline there keeps meaning one traversal
// per candidate (TestAnchorQueriesStayPerVertex), while a scan of a type of a
// thousand vertices clears it, and so does a shard's half of one twice that.
const (
	candSideMinKnown = 1024
	candSideMinShare = 4
)

// newCandidateSide plans the scoring of cands. mat is the caller's own
// materializer; a reverse propagation runs on it, and its failure — the
// context's included — fails the caller whole, like the reference side's.
func newCandidateSide(ctx context.Context, g *hin.Graph, mat Materializer, scorers *queryScorers, measure Measure, paths []metapath.Path, cands []hin.VertexID, held [][]sparse.Vector) (*candidateSide, error) {
	cs := &candidateSide{g: g, scorers: scorers, paths: paths, cands: cands, held: held}
	sm, ok := mat.(setMaterializer)
	if !ok || held != nil || measure != MeasureNetOut || scorers.concat != nil {
		if scorers.concat != nil {
			scorers.concat.withDir()
		}
		for _, rs := range scorers.perPath {
			rs.withDir()
		}
		return cs, nil
	}
	cs.memo = make([]*visPath, len(paths))
	cs.num = make([][]float64, len(paths))
	cs.numer = make([]string, len(paths))
	var err error
	for m, p := range paths {
		rs := scorers.perPath[m]
		tbl, known, need := sm.norms(p, cands)
		cs.memo[m] = tbl
		// num is exact or nil: a path whose used numerators left 2⁵³ walks
		// per vertex.
		if known >= need {
			if cs.num[m], cs.numer[m], err = sm.seedValues(ctx, p, tbl, rs.s, cands); err != nil {
				return nil, err
			}
		}
		if cs.num[m] == nil {
			cs.numer[m] = fmt.Sprintf("vertex known=%d need=%d", known, need)
			rs.withDir()
		}
	}
	return cs, nil
}

// addPlan records numer as the query's plan lines, one per path in
// waistLine's shape: "(0 1 2): numer=vertex known=0 need=1024".
func (cs *candidateSide) addPlan(tr *obs.Tracer) {
	for m, how := range cs.numer {
		tr.AddPlan(cs.paths[m].String() + ": numer=" + how)
	}
}

// candBuf is one goroutine's reusable scratch for walking candidate ranges.
type candBuf struct {
	lo, n int // the loaded range is cands[lo : lo+n]
	// vecs[m][i] is Φ_paths[m](cands[lo+i]) when scoring from vectors not
	// held; omega[m][i] its Ω under path m when scoring from norms.
	vecs  [][]sparse.Vector
	omega [][]float64
	one   []sparse.Vector // one candidate's vectors, gathered for the scorers
	// scores[i] is the combined score of cands[lo+i]; ok[i] is false when no
	// path characterizes it.
	scores []float64
	ok     []bool
}

// load materializes on mat what scoring cands[lo:hi] needs, path by path.
// ctx is polled before every traversal and every load of a vector; a path
// whose numerators were propagated may need neither for a whole call — a
// table read costs less than the poll — and is polled once per call instead.
// It returns how many leading candidates are complete under every path —
// hi-lo, or with the error the prefix that deadline degradation may keep (buf
// then covers that prefix).
func (cs *candidateSide) load(ctx context.Context, mat Materializer, lo, hi int, buf *candBuf) (int, error) {
	buf.lo, buf.n = lo, hi-lo
	if cs.held != nil {
		return buf.n, nil
	}
	if len(buf.vecs) != len(cs.paths) {
		buf.vecs = make([][]sparse.Vector, len(cs.paths))
		buf.omega = make([][]float64, len(cs.paths))
	}
	sm, _ := mat.(setMaterializer) // every view of one is one
	for m, p := range cs.paths {
		if cs.memo == nil {
			buf.vecs[m] = slices.Grow(buf.vecs[m][:0], hi-lo)
		} else {
			buf.omega[m] = slices.Grow(buf.omega[m][:0], hi-lo)
			if cs.num[m] != nil {
				if err := ctxErr(ctx); err != nil {
					buf.n = 0
					return 0, err
				}
			}
		}
		for i, v := range cs.cands[lo:hi] {
			var err error
			if cs.memo != nil {
				var w float64
				w, err = cs.pathOmega(ctx, sm, m, lo+i)
				buf.omega[m] = append(buf.omega[m], w)
			} else if err = ctxErr(ctx); err == nil {
				var phi sparse.Vector
				phi, err = mat.NeighborVector(p, v)
				buf.vecs[m] = append(buf.vecs[m], phi)
			}
			if err != nil {
				// A candidate counts once every path has it: nothing before
				// the last path, that path's progress within it.
				buf.n = 0
				if m == len(cs.paths)-1 {
					buf.n = i
				}
				return buf.n, err
			}
		}
	}
	return buf.n, nil
}

// pathOmega is Ω under path m of candidate i, scored from norms: NaN when it
// is invisible under the path. ctx is polled before a traversal, not before
// a table read.
func (cs *candidateSide) pathOmega(ctx context.Context, sm setMaterializer, m, i int) (float64, error) {
	p, tbl, v := cs.paths[m], cs.memo[m], cs.cands[i]
	if num := cs.num[m]; num != nil {
		vis, err := sm.visibility(ctx, p, v, tbl)
		return netOut(num[i], vis), err
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	phi, err := sm.NeighborVector(p, v)
	if err != nil {
		return 0, err
	}
	dot, vis := cs.scorers.perPath[m].dir.DotNorm(phi)
	tbl.put(v, vis)
	return netOut(dot, vis), nil
}

// score combines what load left in buf into buf.scores and buf.ok.
func (cs *candidateSide) score(buf *candBuf) {
	buf.scores, buf.ok = slices.Grow(buf.scores[:0], buf.n), slices.Grow(buf.ok[:0], buf.n)
	if len(buf.one) != len(cs.paths) {
		buf.one = make([]sparse.Vector, len(cs.paths))
	}
	for i := 0; i < buf.n; i++ {
		var s float64
		var ok bool
		if cs.memo != nil {
			var mean weightedMean
			for m, w := range cs.scorers.weights {
				mean.add(w, buf.omega[m][i])
			}
			s, ok = mean.value()
		} else {
			for m := range cs.paths {
				if cs.held != nil {
					buf.one[m] = cs.held[m][buf.lo+i]
				} else {
					buf.one[m] = buf.vecs[m][i]
				}
			}
			s, ok = cs.scorers.score(buf.one)
		}
		buf.scores, buf.ok = append(buf.scores, s), append(buf.ok, ok)
	}
}

// collect offers buf's scored candidates to sel and appends the ones no
// path characterizes to skipped, in candidate order.
func (cs *candidateSide) collect(buf *candBuf, sel *topSelector, skipped []hin.VertexID) []hin.VertexID {
	for i, s := range buf.scores {
		v := cs.cands[buf.lo+i]
		if !buf.ok[i] {
			skipped = append(skipped, v)
			continue
		}
		sel.push(Entry{Vertex: v, Name: cs.g.Name(v), Score: s})
	}
	return skipped
}

// ---------------------------------------------------------------------------
// Visibility table

// maxVisBytes bounds the norm tables and kept numerators of one baseline and
// all its views.
const maxVisBytes = 64 << 20

// walkSeed keys the fingerprints of first sightings (visPath.sighted).
var walkSeed = maphash.MakeSeed()

// visTable memoizes the visibilities ‖Φ_P(v)‖² = κ(v,v) (Section 5.1) that
// traversals have computed, and the numerators of one S per path (keptWalk):
// one visPath per feature path, created on first use. The root baseline owns
// it and every NewView shares it, so a query's local ranges, a shard server's
// view pool and a ServePool's queries fill and read the same tables. When a
// new path's table would push the total past limit, whole tables go, oldest
// first, kept N and all; a kept N never displaces a norm (keep). A reader
// holding an evicted table keeps a consistent one for the rest of its query.
type visTable struct {
	limit int64
	// minKnown and minShare are the propagation crossover (candSideMinKnown,
	// candSideMinShare; tests lower them to reach the branch on small graphs).
	minKnown, minShare int

	mu    sync.Mutex
	paths map[string]*visPath
	order []string // keys of paths, oldest first
	bytes int64
}

// visPath is one path's table, indexed by vertex ID offset by the source
// type's first ID (the dense kernel's span trick: one slot per vertex of the
// type when a loader added them together).
type visPath struct {
	lo hin.VertexID
	// bits[v-lo] is Float64bits(‖Φ(v)‖²)+1, or 0 while unknown: +0 is a
	// legitimate visibility (an invisible vertex), so absence needs a word of
	// its own, and no norm is the NaN whose bits are all ones. Every writer
	// of a slot stores the same word — the norm is a function of (path,
	// vertex) — so concurrent fills need atomicity, not ordering.
	bits []atomic.Uint64
	// walk is the kept N (nil: none), published whole and never written; seen
	// fingerprints the last S walked without being kept. walkBytes (what walk
	// is charged) and gone (the table was evicted) are t.mu's.
	walk      atomic.Pointer[keptWalk]
	seen      atomic.Uint64
	walkBytes int64
	gone      bool
}

// keptWalk is S walked back along P⁻¹ to its end, N = M_P·S, beside that S,
// held by reference: a reduced S or a broadcast is never written. num[i] is
// N at vs[i], the graph's list of P's source type, every one below 2⁵³.
type keptWalk struct {
	s   sparse.Vector
	vs  []hin.VertexID
	num []float64
}

// read is N at the vertices at, as Traverser.SeedValues reads it: 0 at a
// vertex not of P's source type. A run of vs — a whole-type scan's
// candidates, or the slice PartitionVertices hands a shard — is a window of
// num itself, which nobody writes.
func (w *keptWalk) read(at []hin.VertexID) []float64 {
	if n := len(at); n > 0 {
		if i, _ := slices.BinarySearch(w.vs, at[0]); i+n <= len(w.vs) && slices.Equal(w.vs[i:i+n], at) {
			return w.num[i : i+n : i+n]
		}
	}
	vals := make([]float64, len(at))
	for i, v := range at {
		if j, ok := slices.BinarySearch(w.vs, v); ok {
			vals[i] = w.num[j]
		}
	}
	return vals
}

func (w *keptWalk) bytes() int64 { return int64(w.s.Bytes() + 8*len(w.num)) }

// path returns p's table, creating it when it fits (nil otherwise).
func (t *visTable) path(g *hin.Graph, p metapath.Path) *visPath {
	t.mu.Lock()
	defer t.mu.Unlock()
	if vp := t.paths[p.Key()]; vp != nil {
		return vp
	}
	lo, hi, ok := g.TypeIDSpan(p.Source())
	size := (int64(hi) - int64(lo) + 1) * 8
	if !ok || size > t.limit {
		return nil
	}
	for t.bytes+size > t.limit {
		vp := t.paths[t.order[0]]
		t.bytes -= int64(len(vp.bits))*8 + vp.walkBytes
		vp.gone = true
		delete(t.paths, t.order[0])
		t.order = t.order[1:]
	}
	vp := &visPath{lo: lo, bits: make([]atomic.Uint64, size/8)}
	if t.paths == nil {
		t.paths = make(map[string]*visPath)
	}
	t.paths[p.Key()] = vp
	t.order = append(t.order, p.Key())
	t.bytes += size
	return vp
}

// room is how many bytes an N kept on vp may take: what the limit leaves
// beside every norm table and the other paths' N. A kept N evicts nothing.
func (t *visTable) room(vp *visPath) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limit - t.bytes + vp.walkBytes
}

// keep publishes w as vp's walk in place of the one it keeps, charged to t
// beside the norms, unless it no longer fits vp's room. On a table evicted
// meanwhile it is published uncharged and goes with the table.
func (t *visTable) keep(vp *visPath, w *keptWalk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := w.bytes()
	if !vp.gone {
		if b > t.limit-t.bytes+vp.walkBytes {
			return
		}
		t.bytes, vp.walkBytes = t.bytes+b-vp.walkBytes, b
	}
	vp.walk.Store(w)
}

// sighted records s as the last S walked on vp without being kept and
// reports whether it already was, and was not spoiled since, by a 64-bit
// maphash of its bits: it decides when N is kept, never what a lookup
// matches.
func (vp *visPath) sighted(s sparse.Vector) bool {
	fp := fingerprint(s)
	if vp.seen.Load() == fp|1 {
		return false
	}
	return vp.seen.Swap(fp) == fp
}

// spoil records s, whose N reached 2⁵³ at some vertex of the type, as the
// last S sighted on vp and never to be kept: its repeats walk as first
// sightings do until another S is sighted.
func (vp *visPath) spoil(s sparse.Vector) { vp.seen.Store(fingerprint(s) | 1) }

// fingerprint is s's bits hashed, its lowest bit clear (spoil sets it).
func fingerprint(s sparse.Vector) uint64 {
	var h maphash.Hash
	h.SetSeed(walkSeed)
	var b [12]byte
	for i, ix := range s.Idx {
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(b[:0], uint32(ix)), math.Float64bits(s.Val[i])))
	}
	return h.Sum64() &^ 1
}

// sameBits reports whether a and b hold the same coordinates with the same
// Float64bits (so +0 is not −0, unlike sparse.Vector.Equal), comparing
// nothing when they share their arrays.
func sameBits(a, b sparse.Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	if len(a.Idx) == 0 || &a.Idx[0] == &b.Idx[0] && &a.Val[0] == &b.Val[0] {
		return true
	}
	return slices.Equal(a.Idx, b.Idx) && slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func (t *visTable) residentBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// slot is v's word, nil when v is outside the table (or there is none).
func (vp *visPath) slot(v hin.VertexID) *atomic.Uint64 {
	if vp == nil || v < vp.lo || int(v-vp.lo) >= len(vp.bits) {
		return nil
	}
	return &vp.bits[v-vp.lo]
}

func (vp *visPath) get(v hin.VertexID) (vis float64, ok bool) {
	if s := vp.slot(v); s != nil {
		if w := s.Load(); w != 0 {
			return math.Float64frombits(w - 1), true
		}
	}
	return 0, false
}

func (vp *visPath) put(v hin.VertexID, vis float64) {
	if s := vp.slot(v); s != nil {
		s.Store(math.Float64bits(vis) + 1)
	}
}

// known is the crossover of the reverse propagation (see candSideMinKnown)
// over cands, slice of a source type of n vertices: need is how many of them
// must have their norm in vp to pay for it, known how many do, counted up to
// need. A slice shorter than need never propagates, whatever is known.
func (t *visTable) known(vp *visPath, cands []hin.VertexID, n int) (known, need int) {
	need = max(t.minKnown, (n+t.minShare-1)/t.minShare)
	if vp == nil {
		return 0, need
	}
	for _, v := range cands {
		if _, ok := vp.get(v); ok {
			if known++; known == need {
				break
			}
		}
	}
	return known, need
}
