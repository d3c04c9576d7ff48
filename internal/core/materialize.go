package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// Strategy identifies a materialization strategy from Section 6.
type Strategy int

const (
	// StrategyBaseline traverses the network for every neighbor vector.
	StrategyBaseline Strategy = iota
	// StrategyPM pre-materializes all length-2 meta-path neighbor vectors.
	StrategyPM
	// StrategySPM pre-materializes length-2 vectors only for vertices that
	// appear frequently in an initialization query set.
	StrategySPM
)

func (s Strategy) String() string {
	switch s {
	case StrategyBaseline:
		return "Baseline"
	case StrategyPM:
		return "PM"
	case StrategySPM:
		return "SPM"
	case StrategyCached:
		return "Cached"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// MatStats accumulates the per-call cost split the Figure 4 study reports:
// time and vector counts for index hits versus network traversal.
type MatStats struct {
	IndexedTime      time.Duration
	TraversalTime    time.Duration
	IndexedVectors   int64
	TraversedVectors int64
}

// Sub returns the difference s - o, for snapshot-style interval measurement.
func (s MatStats) Sub(o MatStats) MatStats {
	return MatStats{
		IndexedTime:      s.IndexedTime - o.IndexedTime,
		TraversalTime:    s.TraversalTime - o.TraversalTime,
		IndexedVectors:   s.IndexedVectors - o.IndexedVectors,
		TraversedVectors: s.TraversedVectors - o.TraversedVectors,
	}
}

// Add returns the sum s + o, for aggregating per-worker stat deltas.
func (s MatStats) Add(o MatStats) MatStats {
	return MatStats{
		IndexedTime:      s.IndexedTime + o.IndexedTime,
		TraversalTime:    s.TraversalTime + o.TraversalTime,
		IndexedVectors:   s.IndexedVectors + o.IndexedVectors,
		TraversedVectors: s.TraversedVectors + o.TraversedVectors,
	}
}

// ---------------------------------------------------------------------------
// Baseline, PM, SPM and Cached

// Materializer produces neighbor vectors Φ_P(v). It is Section 6's one
// materializer: a length-2 index (pathIndex) over a traverser. Baseline is the
// index with no table; PM and SPM fill it with every vertex's length-2 vectors
// or the frequent vertices' ones; Cached keeps vectors in its store beside the
// empty index (lru, cache.go). A load goes two hops at a time by Section 6.2's
// identity, which Traverser.Combine computes from the index, traversing the
// vectors it lacks (fills):
//
//	Φ_{P1 P2}(v) = Σ_j |π_P1(v, vj)| · Φ_P2(vj)
//
// A chunk with no table, one whose counts reach 2⁵³ and the odd tail are
// walked hop by hop instead, as Baseline walks the whole path (walk). All the
// hops one load walks are one traversed vector; each fill is one more.
//
// A Materializer is one goroutine's at a time, whatever its strategy: share
// its index and store across goroutines via NewView, each view with its own
// traversal scratch and counters.
type Materializer struct {
	tr *metapath.Traverser
	ix *pathIndex
	// lru is the store, shared by every view: Cached's vectors, the norm
	// tables and kept N, every pool's compiled queries. hits and misses are
	// this handle's loads from Cached's.
	lru          *sharedCacheState
	hits, misses int64
	strategy     Strategy
	stats        MatStats
	// fill traverses the vectors a table lacks, created on the first miss:
	// Combine holds tr's scratch while it asks for them.
	fill    *metapath.Traverser
	unitIdx [1]int32 // the frontier {v} a load starts from
	unitVal [1]float64
	// hook, when set, runs first in each per-(path, vertex) load —
	// NeighborVector and visibility — and views inherit it. Only the fault
	// tests set it.
	hook func(metapath.Path, hin.VertexID)
}

func newMaterializer(g *hin.Graph, ix *pathIndex, strategy Strategy, maxBytes int64) *Materializer {
	return &Materializer{tr: metapath.NewTraverser(g), ix: ix, strategy: strategy, lru: newSharedCacheState(g, maxBytes)}
}

// NewBaseline returns the traversal-only materializer of Section 6.1: the
// index with no table.
func NewBaseline(g *hin.Graph) *Materializer {
	return newMaterializer(g, newPathIndex(g), StrategyBaseline, keptMaxBytes)
}

// Strategy identifies the strategy the materializer was built for.
func (m *Materializer) Strategy() Strategy { return m.strategy }

// Stats returns this handle's cumulative cost counters since construction.
func (m *Materializer) Stats() MatStats { return m.stats }

// IndexBytes reports the in-memory size of the pre-materialized index, as
// studied in Figure 5b, plus what its store keeps between queries: a cache's
// vectors and waist tables, the norm tables and kept N, and a pool's compiled
// queries.
func (m *Materializer) IndexBytes() int64 { return m.ix.bytes + m.lru.bytes.Load() }

// cached reports Cached: the store keeps vectors, and a load reads it first.
func (m *Materializer) cached() bool { return m.strategy == StrategyCached }

// NeighborVector returns Φ_P(v).
func (m *Materializer) NeighborVector(p metapath.Path, v hin.VertexID) (sparse.Vector, error) {
	if m.hook != nil {
		m.hook(p, v)
	}
	if err := metapath.CheckSource(m.tr.Graph(), p, v); err != nil {
		return sparse.Vector{}, err
	}
	if p.Hops() == 0 {
		return m.tr.NeighborVector(p, v)
	}
	if m.cached() {
		return m.cachedLoad(p, v)
	}
	vec, _, err := m.walk(p, v)
	return vec, err
}

// walk is the one evaluation of Φ_p(v), p of one hop or more. It starts at
// {v}, or under a cache at the longest kept prefix (resume), and at each hop
// does the first of: combine two hops from a chunk table (PM, SPM); under a
// cache, finish the path from a waist's table (finishAtWaist); expand one hop.
// Intermediate frontiers live in tr's hop buffers (slot = hop parity), so a
// walk allocates what Traverser.NeighborVector does, its result, plus under a
// cache the frontiers it keeps for resumes (keepPrefix). It is one traversed
// vector if it expanded a hop, and under a cache always: it is a miss. work is
// what it read (metapath.Traverser.Work) plus what the prefix it resumed from
// had: the work of walking it from {v}, which each frontier it keeps is worth
// up to its hop.
func (m *Materializer) walk(p metapath.Path, v hin.VertexID) (_ sparse.Vector, work int64, err error) {
	n, key := p.Hops(), p.Key()
	m.unitIdx, m.unitVal = [1]int32{int32(v)}, [1]float64{1}
	frontier, hop := sparse.Vector{Idx: m.unitIdx[:], Val: m.unitVal[:]}, 0
	if m.cached() {
		frontier, hop, work = m.lru.resume(key, v, frontier)
	}
	work -= m.tr.Work() // work + m.tr.Work() is the walk's so far
	var start time.Time // of the hops expanded since the last table step
	walked := m.cached()
	for hop < n && !frontier.IsZero() {
		out, next, ok := sparse.Vector{}, n, false
		if tbl := m.chunk(key, hop); tbl != nil {
			out, ok, err = m.chunkStep(tbl, frontier, hop)
			next = hop + 2
		} else if m.cached() && isWaist(m.tr.Graph(), p, hop, m.lru.waists.ratio) {
			out, ok, err = m.finishAtWaist(p, hop, frontier)
		}
		if err != nil {
			return sparse.Vector{}, 0, err
		}
		if ok {
			m.clock(&start)
			frontier, hop = out, next
			continue
		}
		if start.IsZero() {
			start, walked = time.Now(), true
		}
		if hop == n-1 {
			frontier = m.tr.Expand(frontier, p.Type(n))
		} else if frontier = m.tr.ExpandScratch(frontier, p.Type(hop+1), hop); m.cached() {
			m.lru.keepPrefix(key[:hop+2], v, frontier, work+m.tr.Work())
		}
		hop++
	}
	m.clock(&start)
	if walked {
		m.stats.TraversedVectors++
	}
	work += m.tr.Work()
	if frontier.IsZero() {
		return sparse.Vector{}, work, nil // never a view of hop scratch
	}
	return frontier, work, nil
}

// clock charges the hops expanded since *start, if any, to traversal time.
func (m *Materializer) clock(start *time.Time) {
	if !start.IsZero() {
		m.stats.TraversalTime += time.Since(*start)
		*start = time.Time{}
	}
}

// chunk is the table of the chunk of key (a path's Key) from hop to hop+2,
// looked up by the substring that shares key's bytes: nil when the index has
// none, at an odd hop, and past the last whole chunk.
func (m *Materializer) chunk(key string, hop int) *pathTable {
	if hop%2 != 0 || hop+3 > len(key) {
		return nil
	}
	return m.ix.tables[key[hop:hop+3]]
}

// chunkStep advances frontier along tbl's chunk: at hop 0, where frontier is
// {v}, by the probe at v (the vector buildIndex walked), later by combine.
// ok is false on a miss at hop 0.
func (m *Materializer) chunkStep(tbl *pathTable, frontier sparse.Vector, hop int) (sparse.Vector, bool, error) {
	if hop == 0 {
		out, ok := m.probe(tbl, hin.VertexID(frontier.Idx[0]))
		return out, ok, nil
	}
	return m.combine(frontier, tbl.path, func(u hin.VertexID) (sparse.Vector, bool) { return m.probe(tbl, u) }, nil)
}

// probe reads Φ at u from tbl: an indexed vector when there.
func (m *Materializer) probe(tbl *pathTable, u hin.VertexID) (sparse.Vector, bool) {
	start := time.Now()
	vec, ok := m.ix.probe(tbl, u)
	m.stats.IndexedTime += time.Since(start) // a miss paid the lookup too
	if ok {
		m.stats.IndexedVectors++
	}
	return vec, ok
}

// combine advances frontier over the vectors of suffix (Traverser.Combine):
// what get has, else a fill (fillVector) offered to keep, when not nil, with
// the work it read. ok is false where a count reaches 2⁵³ and Combine's sums
// stop being order-free: the caller expands the hops instead, so the result
// is Baseline's bit for bit whatever the counts.
func (m *Materializer) combine(frontier sparse.Vector, suffix metapath.Path, get func(hin.VertexID) (sparse.Vector, bool), keep func(hin.VertexID, sparse.Vector, int64)) (out sparse.Vector, ok bool, err error) {
	out, ok = m.tr.Combine(frontier, func(u hin.VertexID) sparse.Vector {
		vec, found := get(u)
		if !found {
			var e error
			var work int64
			if vec, work, e = m.fillVector(suffix, u); e != nil {
				err = e
			} else if keep != nil {
				keep(u, vec, work)
			}
		}
		return vec
	}, suffix.Target())
	return out, ok && err == nil, err
}

// fillVector traverses Φ_suffix(u) for a table that lacks it, on the fill
// traverser: one traversed vector, and the work it read.
func (m *Materializer) fillVector(suffix metapath.Path, u hin.VertexID) (sparse.Vector, int64, error) {
	if m.fill == nil {
		m.fill = metapath.NewTraverser(m.tr.Graph())
	}
	defer m.traversed(time.Now())
	work := m.fill.Work()
	vec, err := m.fill.NeighborVector(suffix, u)
	return vec, m.fill.Work() - work, err
}

// traversed accounts one traversal begun at start.
func (m *Materializer) traversed(start time.Time) {
	m.stats.TraversalTime += time.Since(start)
	m.stats.TraversedVectors++
}

// setVector is the set-frontier reduction (Traverser.SetVector) on the
// traverser, whatever the strategy, accounted as one traversed vector.
func (m *Materializer) setVector(ctx context.Context, p metapath.Path, set []hin.VertexID) (sparse.Vector, bool, error) {
	defer m.traversed(time.Now())
	return m.tr.SetVector(ctx, p, set)
}

// seedValues is its weighted form along p⁻¹ read at the vertices at: N =
// M_p·seed (Traverser.SeedValues), nil unless exact. The store keeps N over
// all of p's source type under key (queryScorers.numerKey), which names seed
// by its digest: a first sighting of a seed is noted on p's norm table tbl
// (visPath.sight), and a second, finding the note, walks N over the type and
// keeps it (sharedCacheState.put) when N's bytes fit the whole budget —
// unless a value reached 2⁵³: the seed is then noted spoiled, and its repeats
// walk as first sightings do. A later seed under key reads N there: what the
// same walk returned, so the same bits. how says which ran, "memo" or "walk".
// A walk is one traversed vector, kept or not; a read one indexed vector,
// after a poll of ctx whose error fails the caller whole as the walk's polls
// do.
func (m *Materializer) seedValues(ctx context.Context, p metapath.Path, seed sparse.Vector, key ckey, tbl *visPath, at []hin.VertexID) (vals []float64, how string, err error) {
	if w, ok := m.lru.lookup(key).(*keptN); ok {
		if err := ctxErr(ctx); err != nil {
			return nil, "memo", err
		}
		start := time.Now()
		vals = w.read(at)
		m.stats.IndexedTime += time.Since(start)
		m.stats.IndexedVectors++
		return vals, "memo", nil
	}
	defer m.traversed(time.Now())
	back, all := p.Reverse(), m.tr.Graph().VerticesOfType(p.Source())
	d := binary.BigEndian.Uint64([]byte(key.path[len(key.path)-8:])) // the digest's last word
	// A repeat keeps N when it fits the budget: the whole type is walked for
	// nothing else.
	if (&keptN{key: key, vs: all}).bytes() > m.lru.maxBytes || !tbl.sight(d) {
		vals, _, err = m.tr.SeedValues(ctx, back, seed, at)
		return vals, "walk", err
	}
	work := m.tr.Work()
	n, _, err := m.tr.SeedValues(ctx, back, seed, all)
	if err != nil {
		return nil, "walk", err
	}
	if n == nil {
		tbl.note(^d)
		vals, _, err = m.tr.SeedValues(ctx, back, seed, at)
		return vals, "walk", err
	}
	kept := &keptN{key: key, vs: all, num: n, rank: rank{work: m.tr.Work() - work}}
	m.lru.put(kept)
	return kept.read(at), "walk", nil
}

// visibility traverses ‖Φ_p(v)‖², allocating nothing, and leaves it in tbl,
// worth the walk: one traversed vector. A known norm is read by the caller
// (fromNumerators).
func (m *Materializer) visibility(p metapath.Path, v hin.VertexID, tbl *visPath) (float64, error) {
	if m.hook != nil {
		m.hook(p, v)
	}
	defer m.traversed(time.Now())
	work := m.tr.Work()
	vis, err := m.tr.Visibility(p, v)
	if err == nil {
		tbl.put(v, vis)
		tbl.cost.Add(m.tr.Work() - work)
	}
	return vis, err
}

// allLength2Paths enumerates every schema-valid length-2 meta-path.
func allLength2Paths(s *hin.Schema) []metapath.Path {
	var out []metapath.Path
	for t0 := 0; t0 < s.NumTypes(); t0++ {
		for _, t1 := range s.AllowedFrom(hin.TypeID(t0)) {
			for _, t2 := range s.AllowedFrom(t1) {
				out = append(out, metapath.MustNew(hin.TypeID(t0), t1, t2))
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// PM and SPM

// buildIndex is the one index build: Φ_p(v) by plain traversal for every
// path of paths (length 2, Section 6.2) from every vertex sources returns for
// the path's source type. Construction cost is deliberately front-loaded (it
// models an offline indexing phase).
func buildIndex(g *hin.Graph, strategy Strategy, paths []metapath.Path, sources func(hin.TypeID) []hin.VertexID) *Materializer {
	m := newMaterializer(g, newPathIndex(g), strategy, keptMaxBytes)
	for _, p := range paths {
		if p.Hops() != 2 {
			panic(fmt.Sprintf("core: %s pre-materializes length-2 paths only, got %v", strategy, p))
		}
		for _, v := range sources(p.Source()) {
			vec, err := m.tr.NeighborVector(p, v)
			if err != nil {
				// Unreachable: sources are handed out by type.
				panic(err)
			}
			m.ix.put(p, v, vec)
		}
	}
	return m
}

// NewPM builds the full pre-materialization strategy: Φ vectors for every
// schema-valid length-2 meta-path from every vertex. Query time then pays
// only index lookups plus single-hop traversal for odd-length paths.
func NewPM(g *hin.Graph) *Materializer {
	return NewPMPaths(g, allLength2Paths(g.Schema()))
}

// NewPMPaths builds PM restricted to a subset of length-2 meta-paths
// (Section 6.2: "we may compute all length-2 paths or only a subset").
func NewPMPaths(g *hin.Graph, paths []metapath.Path) *Materializer {
	return buildIndex(g, StrategyPM, paths, g.VerticesOfType)
}

// SPMConfig configures selective pre-materialization.
type SPMConfig struct {
	// Threshold is the relative frequency cutoff: a vertex is materialized
	// if it appears in the candidate set of at least Threshold·|queries| of
	// the initialization queries (Section 6.2; the paper studies 0.001,
	// 0.01, 0.05 and 0.1).
	Threshold float64
}

// NewSPM builds the selective pre-materialization strategy from an
// initialization query set: it resolves each query's candidate set with a
// throwaway baseline engine, counts how often each vertex appears across
// candidate sets, and pre-materializes all length-2 meta-paths starting
// from the vertices whose relative frequency reaches the threshold.
func NewSPM(g *hin.Graph, initQueries []string, cfg SPMConfig) (*Materializer, error) {
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("core: SPM threshold must be in [0,1], got %g", cfg.Threshold)
	}
	freq := make(map[hin.VertexID]int)
	probe := NewEngine(g)
	for _, src := range initQueries {
		members, err := probe.CandidateSet(src)
		if err != nil {
			return nil, fmt.Errorf("core: SPM initialization query %q: %w", src, err)
		}
		for _, v := range members {
			freq[v]++
		}
	}
	cutoff := cfg.Threshold * float64(len(initQueries))
	var selected []hin.VertexID
	for v, n := range freq {
		if float64(n) >= cutoff {
			selected = append(selected, v)
		}
	}
	return NewSPMVertices(g, selected), nil
}

// NewSPMVertices builds SPM with an explicit pre-selected vertex set,
// bypassing the frequency-counting phase. Useful for tests and for callers
// that track query logs themselves.
func NewSPMVertices(g *hin.Graph, vertices []hin.VertexID) *Materializer {
	byType := make(map[hin.TypeID][]hin.VertexID)
	for _, v := range vertices {
		byType[g.Type(v)] = append(byType[g.Type(v)], v)
	}
	return buildIndex(g, StrategySPM, allLength2Paths(g.Schema()),
		func(t hin.TypeID) []hin.VertexID { return byType[t] })
}
