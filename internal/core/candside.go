package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// Two ways to score, chosen from the query's shape alone:
//
//   - From vectors: Φ_P(v) per (path, candidate), held by the reference pass
//     when Sr ≡ Sc, loaded through the materializer otherwise, scored by the
//     query's scorers: any measure, combination, materializer, and a slice
//     under the crossover (sharedCacheState.need), which reads no norm table
//     — under Cached one would take room from the cached vectors.
//   - From norms, for NetOut under CombineAverage over a slice at the
//     crossover with nothing held, on every strategy: Ω_P(v) = Φ_P(v)·S /
//     ‖Φ_P(v)‖², and the denominator is a per-(path, vertex) scalar the
//     materializer's store memoizes (visPath). A path with enough of the
//     slice's norms known (known) also gets every numerator at once: N = M_P·S
//     is S propagated back along P⁻¹ (Traverser.SeedValues; edges are
//     symmetric), one walk instead of one per candidate, its last hop gathered
//     at this side's candidates only — or no walk at all, N read where the
//     store keeps it for an S it has seen before (indexed.seedValues). A
//     candidate whose norm is known then costs a table read and a division;
//     one whose norm is not costs the walk it always did — Φ drained into
//     scratch when only its norm is wanted — and leaves the norm behind. N is
//     exact or absent: SeedValues reports when a count it used reached 2⁵³ and
//     the path then keeps walking per vertex. Below 2⁵³ every term of Φ·S is a
//     non-negative integer bounded by N[v], so every product and partial sum
//     of Dot is exact in any order, fused or not, and N[v] is
//     Float64bits-identical to it; the norm is the very float64 Norm2Sq
//     returned. Scores are therefore the per-vertex path's bit for bit.
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
	// plan[m] is path m's plan line, in waistLine's shape: where num[m] came
	// from, "(0 1 2): numer=" and "memo" (the store's kept N), "walk" (S
	// walked back by this query), or "vertex" (a walk per candidate) with the
	// crossover's inputs, "vertex known=0 need=1024".
	plan []string
	// ifq receives scoreRange's chunk progress (nil-safe; nil on a shard
	// server).
	ifq *obs.InflightQuery
}

// The crossover of the reverse propagation, as the store applies it (known):
// a path is propagated when the slice holds at least candSideMinKnown
// candidates whose norm is known and they are at least 1/candSideMinShare of
// the source type.
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
	sm, ok := mat.(*indexed)
	if !ok || held != nil || measure != MeasureNetOut || scorers.concat != nil || len(cands) < sm.lru.need(paths[0].Source()) {
		for _, rs := range scorers.all() {
			rs.withDir()
		}
		return cs, nil
	}
	cs.memo = make([]*visPath, len(paths))
	cs.num = make([][]float64, len(paths))
	cs.plan = make([]string, len(paths))
	var err error
	for m, p := range paths {
		rs := scorers.perPath[m]
		cs.memo[m] = sm.lru.normTable(p) // nil when none fits
		known, need := sm.lru.known(cs.memo[m], p.Source(), cands)
		// num is exact or nil: a path whose used numerators left 2⁵³ walks
		// per vertex.
		var how string
		if known >= need {
			if cs.num[m], how, err = sm.seedValues(ctx, p, rs.s, scorers.numerKeys(paths)[m], cands); err != nil {
				return nil, err
			}
		}
		if cs.num[m] != nil {
			cs.plan[m] = p.String() + ": numer=" + how
		} else {
			cs.plan[m] = fmt.Sprintf("%s: numer=vertex known=%d need=%d", p, known, need)
			rs.withDir()
		}
	}
	return cs, nil
}

// candBuf is one goroutine's reusable scratch for walking candidate ranges.
type candBuf struct {
	lo, n int // the loaded range is cands[lo : lo+n]
	// vecs[m][i] is Φ_paths[m](cands[lo+i]) when scoring from vectors not
	// held; omega[m][i] its Ω under path m when scoring from norms.
	vecs  [][]sparse.Vector
	omega [][]float64
	one   []sparse.Vector // one candidate's vectors, gathered for the scorers
}

// load materializes on mat what scoring cands[lo:hi] needs, path by path.
// ctx is polled before every traversal and every load of a vector, and once
// per call on a path whose numerators were propagated (fromNumerators), where
// a table read costs less than the poll. It returns how many leading
// candidates are complete under every path — hi-lo, or with the error the
// prefix that deadline degradation may keep (buf then covers that prefix).
func (cs *candidateSide) load(ctx context.Context, mat Materializer, lo, hi int, buf *candBuf) (int, error) {
	buf.lo, buf.n = lo, hi-lo
	if cs.held != nil {
		return buf.n, nil
	}
	if len(buf.vecs) != len(cs.paths) {
		buf.vecs = make([][]sparse.Vector, len(cs.paths))
		buf.omega = make([][]float64, len(cs.paths))
	}
	for m, p := range cs.paths {
		vecs, omega := buf.vecs[m][:0], buf.omega[m][:0] // one stays empty
		if cs.memo == nil {
			vecs = slices.Grow(vecs, hi-lo)
		} else {
			omega = slices.Grow(omega, hi-lo)
		}
		var err error
		if cs.memo != nil && cs.num[m] != nil {
			omega, err = cs.fromNumerators(ctx, mat.(*indexed), m, lo, hi, omega)
		} else {
			// One Φ per candidate: kept when scoring from vectors, reduced
			// to Ω and its norm left in the table, worth the walks, when
			// scoring from norms.
			var work int64
			if cs.memo != nil {
				work = mat.(*indexed).tr.Work()
			}
			for _, v := range cs.cands[lo:hi] {
				var phi sparse.Vector
				if err = ctxErr(ctx); err == nil {
					phi, err = mat.NeighborVector(p, v)
				}
				if err != nil {
					break
				}
				if cs.memo == nil {
					vecs = append(vecs, phi)
					continue
				}
				dot, vis := cs.scorers.perPath[m].dir.DotNorm(phi)
				cs.memo[m].put(v, vis)
				omega = append(omega, netOut(dot, vis))
			}
			if cs.memo != nil && cs.memo[m] != nil {
				cs.memo[m].cost.Add(mat.(*indexed).tr.Work() - work)
			}
		}
		buf.vecs[m], buf.omega[m] = vecs, omega
		if err != nil {
			// A candidate counts once every path has it: nothing before
			// the last path, that path's progress within it.
			buf.n = 0
			if m == len(cs.paths)-1 {
				buf.n = len(vecs) + len(omega)
			}
			return buf.n, err
		}
	}
	return buf.n, nil
}

// fromNumerators appends Ω under path m of cands[lo:hi], whose numerators
// were propagated, to omega in one pass over the path's norm table's words:
// a known norm costs an atomic load and a division, an unknown one a poll and
// a traversal (indexed.visibility). The hits count once per call. On an error
// omega ends before the failing candidate.
func (cs *candidateSide) fromNumerators(ctx context.Context, sm *indexed, m, lo, hi int, omega []float64) ([]float64, error) {
	if err := ctxErr(ctx); err != nil {
		return omega, err
	}
	p, tbl, num := cs.paths[m], cs.memo[m], cs.num[m][lo:hi]
	bits, base, hits := tbl.bits, tbl.lo, 0
	defer func() { sm.stats.IndexedVectors += int64(hits) }()
	for i, v := range cs.cands[lo:hi] {
		var w uint64 // visPath.bits' word: 0 while unknown
		if j := uint(v - base); j < uint(len(bits)) {
			w = bits[j].Load()
		}
		vis := math.Float64frombits(w - 1)
		if w != 0 {
			hits++
		} else if err := ctxErr(ctx); err != nil {
			return omega, err
		} else if vis, err = sm.visibility(p, v, tbl); err != nil {
			return omega, err
		}
		omega = append(omega, netOut(num[i], vis))
	}
	return omega, nil
}

// collect scores what load left in buf and offers the candidates to sel,
// appending the ones no path characterizes to skipped, in candidate order.
// One sel would not admit is dropped before its name is read.
func (cs *candidateSide) collect(buf *candBuf, sel *topSelector, skipped []hin.VertexID) []hin.VertexID {
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
		v := cs.cands[buf.lo+i]
		if !ok {
			skipped = append(skipped, v)
		} else if e := (Entry{Vertex: v, Score: s}); sel.admits(e) {
			e.Name = cs.g.Name(v)
			sel.push(e)
		}
	}
	return skipped
}

// ---------------------------------------------------------------------------
// Norm tables

// visPath memoizes one feature path's visibilities ‖Φ_P(v)‖² = κ(v,v)
// (Section 5.1) that traversals have computed. It is an element of the
// materializer's store, created on first use (sharedCacheState.normTable) and
// shared by every view, so a query's local ranges and every query or shard
// request a ServePool admits fill and read the same table. It is worth the
// walks that filled it; a reader holding an evicted table keeps a consistent
// one for the rest of its query. Norms are indexed by vertex ID offset by the
// source type's first ID (the dense kernel's span trick: one slot per vertex
// of the type when a loader added them together).
type visPath struct {
	rank
	key ckey
	lo  hin.VertexID
	// cost is the work of the walks whose norms the table holds; the store
	// ranks it by what cost was when it was last put in its class.
	cost atomic.Int64
	// bits[v-lo] is Float64bits(‖Φ(v)‖²)+1, or 0 while unknown: +0 is a
	// legitimate visibility (an invisible vertex), so absence needs a word of
	// its own, and no norm is the NaN whose bits are all ones. Every writer
	// of a slot stores the same word — the norm is a function of (path,
	// vertex) — so concurrent fills need atomicity, not ordering.
	bits []atomic.Uint64
}

func (vp *visPath) ckey() ckey   { return vp.key }
func (vp *visPath) bytes() int64 { return 8 * int64(len(vp.bits)) }

// keptN is S walked back along P⁻¹ to its end, N = M_P·S, beside that S, held
// by reference — a reduced S or a broadcast is never written — under P's key
// and S's digest (indexed.seedValues). num[i] is N at vs[i], the graph's list
// of P's source type, every one below 2⁵³. A ghost holds its key alone: S was
// seen once, or (spoiled) its N reached 2⁵³ at some vertex of the type and
// is never kept; it is worth no work. Published whole and never written but
// for its rank, which only the store reads.
type keptN struct {
	rank
	key     ckey
	s       sparse.Vector
	vs      []hin.VertexID
	num     []float64
	spoiled bool
}

func (w *keptN) ckey() ckey { return w.key }

// bytes is what w is charged: S, N at every vertex of vs, and its key; 0 for
// nil.
func (w *keptN) bytes() int64 {
	if w == nil {
		return 0
	}
	return int64(w.s.Bytes()+8*len(w.vs)) + indexEntryOverhead + int64(len(w.key.path))
}

// read is N at the vertices at, as Traverser.SeedValues reads it: 0 at a
// vertex not of P's source type. A run of vs — a whole-type scan's
// candidates, or the slice PartitionVertices hands a shard — is a window of
// num itself, which nobody writes.
func (w *keptN) read(at []hin.VertexID) []float64 {
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

// normTable returns p's norm table, used, creating it when it fits the budget
// (nil otherwise).
func (st *sharedCacheState) normTable(p metapath.Path) *visPath {
	key := ckey{path: p.Key(), v: normsOf}
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[key]; ok {
		vp := el.Value.(*visPath)
		if work := vp.cost.Load(); classOf(work, vp.bytes()) == vp.class {
			st.touchLocked(el)
		} else { // its walks moved it to another class
			st.rerankLocked(el, work, 0)
		}
		return vp
	}
	lo, hi, ok := st.g.TypeIDSpan(p.Source())
	size := (int64(hi) - int64(lo) + 1) * 8
	if !ok || size > st.maxBytes {
		return nil
	}
	vp := &visPath{key: key, lo: lo, bits: make([]atomic.Uint64, size/8)}
	st.chargeLocked(size)
	st.pushLocked(vp)
	return vp
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

// need is the crossover of the reverse propagation (see candSideMinKnown)
// over a slice of type t: how many of its vertices must have their norm
// known to pay for it. A shorter slice is scored from vectors, and a shorter
// Sr loaded per vertex (referenceSide). known is how many of cands, a slice
// of t, have their norm in vp, counted up to need.
func (st *sharedCacheState) need(t hin.TypeID) int {
	return max(st.minKnown, (st.g.NumVerticesOfType(t)+st.minShare-1)/st.minShare)
}

func (st *sharedCacheState) known(vp *visPath, t hin.TypeID, cands []hin.VertexID) (known, need int) {
	need = st.need(t)
	for _, v := range cands {
		if _, ok := vp.get(v); ok {
			if known++; known == need {
				break
			}
		}
	}
	return known, need
}
