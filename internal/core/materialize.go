package core

import (
	"context"
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

// Materializer produces neighbor vectors Φ_P(v), possibly from a
// pre-computed index. The baseline and indexed (PM/SPM) implementations
// are not safe for concurrent use — share their immutable index across
// goroutines via NewView. The cached materializer (NewCached) IS safe for
// concurrent use, and its views share one warm cache.
type Materializer interface {
	// NeighborVector returns Φ_P(v).
	NeighborVector(p metapath.Path, v hin.VertexID) (sparse.Vector, error)
	// Strategy identifies the implementation.
	Strategy() Strategy
	// IndexBytes reports the in-memory size of the pre-materialized index
	// (for the baseline, of the visibilities it has memoized), as studied in
	// Figure 5b.
	IndexBytes() int64
	// Stats returns cumulative cost counters since construction.
	Stats() MatStats
}

// ---------------------------------------------------------------------------
// Baseline

type baseline struct {
	tr    *metapath.Traverser
	stats MatStats
	// vis memoizes the visibilities its traversals compute; the root's table
	// is shared with every view (NewView).
	vis *visTable
}

// NewBaseline returns the traversal-only materializer of Section 6.1.
func NewBaseline(g *hin.Graph) Materializer {
	return &baseline{tr: metapath.NewTraverser(g), vis: &visTable{limit: maxVisBytes, minKnown: candSideMinKnown, minShare: candSideMinShare}}
}

func (b *baseline) NeighborVector(p metapath.Path, v hin.VertexID) (sparse.Vector, error) {
	start := time.Now()
	vec, err := b.tr.NeighborVector(p, v)
	b.traversed(start)
	return vec, err
}

// traversed accounts one traversal begun at start.
func (b *baseline) traversed(start time.Time) {
	b.stats.TraversalTime += time.Since(start)
	b.stats.TraversedVectors++
}

// setVector is the baseline's set-frontier reduction (Traverser.SetVector),
// accounted as one traversed vector.
func (b *baseline) setVector(ctx context.Context, p metapath.Path, set []hin.VertexID) (sparse.Vector, bool, error) {
	defer b.traversed(time.Now())
	return b.tr.SetVector(ctx, p, set)
}

// seedValues is its weighted form read at the vertices at
// (Traverser.SeedValues), accounted the same.
func (b *baseline) seedValues(ctx context.Context, p metapath.Path, seed sparse.Vector, at []hin.VertexID) ([]float64, bool, error) {
	defer b.traversed(time.Now())
	return b.tr.SeedValues(ctx, p, seed, at)
}

// seedLastHop is the same walk stopped before its last hop and kept
// (Traverser.SeedLastHop), accounted the same.
func (b *baseline) seedLastHop(ctx context.Context, p metapath.Path, seed sparse.Vector) (*metapath.LastHop, error) {
	defer b.traversed(time.Now())
	return b.tr.SeedLastHop(ctx, p, seed)
}

// gather finishes a kept walk at the vertices at (Traverser.Gather), nil
// when it is not exact: a read of retained state, accounted as one indexed
// vector, after a poll of ctx whose error fails the caller whole as the
// walk's polls do.
func (b *baseline) gather(ctx context.Context, h *metapath.LastHop, at []hin.VertexID) ([]float64, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	vals, _ := b.tr.Gather(h, at)
	b.stats.IndexedTime += time.Since(start)
	b.stats.IndexedVectors++
	return vals, nil
}

func (b *baseline) norms(p metapath.Path, cands []hin.VertexID) (*visPath, int, int) {
	tbl := b.vis.path(b.tr.Graph(), p)
	known, need := b.vis.known(tbl, cands, b.tr.Graph().NumVerticesOfType(p.Source()))
	return tbl, known, need
}

// visibility returns ‖Φ_p(v)‖² from tbl — an indexed vector, neither timed
// nor preceded by a poll of ctx: the read is one atomic load, two clock reads
// or the context's mutex would cost more — or by a traversal that allocates
// nothing and leaves the norm in tbl.
func (b *baseline) visibility(ctx context.Context, p metapath.Path, v hin.VertexID, tbl *visPath) (float64, error) {
	if vis, ok := tbl.get(v); ok {
		b.stats.IndexedVectors++
		return vis, nil
	}
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	defer b.traversed(time.Now())
	vis, err := b.tr.Visibility(p, v)
	if err == nil {
		tbl.put(v, vis)
	}
	return vis, err
}

// setMaterializer is implemented by materializers for which a load is
// always a traversal and leaves no vector behind — the baseline and its
// views. Only there is reducing a whole set in one propagation never more
// work than loading its vertices one by one (see referenceSide), and only
// there does a candidate's vector serve nothing but its two scalars, the
// connectivity Φ·S and the visibility ‖Φ‖² the materializer memoizes (see
// candidateSide).
type setMaterializer interface {
	Materializer
	setVector(ctx context.Context, p metapath.Path, set []hin.VertexID) (s sparse.Vector, exact bool, err error)
	seedValues(ctx context.Context, p metapath.Path, seed sparse.Vector, at []hin.VertexID) (vals []float64, exact bool, err error)
	seedLastHop(ctx context.Context, p metapath.Path, seed sparse.Vector) (*metapath.LastHop, error)
	gather(ctx context.Context, h *metapath.LastHop, at []hin.VertexID) ([]float64, error)
	// norms is p's visibility table (nil when none fits) and the crossover's
	// inputs over cands: how many have their norm in it, up to need, the count
	// that propagates the path's numerators (visTable.known).
	norms(p metapath.Path, cands []hin.VertexID) (tbl *visPath, known, need int)
	visibility(ctx context.Context, p metapath.Path, v hin.VertexID, tbl *visPath) (float64, error)
}

func (b *baseline) Strategy() Strategy { return StrategyBaseline }
func (b *baseline) IndexBytes() int64  { return b.vis.residentBytes() }
func (b *baseline) Stats() MatStats    { return b.stats }

// ---------------------------------------------------------------------------
// Shared index machinery for PM and SPM (the arena-backed pathIndex lives in
// pathindex.go)

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

// indexedMaterializer resolves arbitrary meta-paths against a (possibly
// partial) length-2 index: the path is consumed two hops at a time by the
// decomposition identity of Section 6.2, which Traverser.Combine computes,
// with the indexed vector of each frontier vertex when present and a
// traversed one otherwise:
//
//	Φ_{P1 P2}(v) = Σ_j |π_P1(v, vj)| · Φ_P2(vj)
type indexedMaterializer struct {
	tr       *metapath.Traverser
	ix       *pathIndex
	strategy Strategy
	stats    MatStats
	// fill traverses the chunk vectors the index lacks, created on the first
	// miss: Combine holds tr's scratch while it asks for them.
	fill *metapath.Traverser
}

func (m *indexedMaterializer) Strategy() Strategy { return m.strategy }
func (m *indexedMaterializer) IndexBytes() int64  { return m.ix.bytes }
func (m *indexedMaterializer) Stats() MatStats    { return m.stats }

func (m *indexedMaterializer) NeighborVector(p metapath.Path, v hin.VertexID) (sparse.Vector, error) {
	if err := metapath.CheckSource(m.tr.Graph(), p, v); err != nil {
		return sparse.Vector{}, err
	}
	// Whole-path fast path: length-2 paths are looked up directly.
	if p.Hops() == 2 {
		if vec, ok := m.probe(m.ix.table(p), v); ok {
			return vec, nil
		}
		return m.traverseFrontier(p, 0, sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}), nil
	}
	frontier := sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}
	hop := 0
	for ; p.Hops()-hop >= 2; hop += 2 {
		var err error
		frontier, err = m.combine(metapath.MustNew(p.Type(hop), p.Type(hop+1), p.Type(hop+2)), frontier)
		if err != nil || frontier.IsZero() {
			return frontier, err
		}
	}
	if hop < p.Hops() {
		// Odd-length tail: a single network hop (Section 6.2: "even if the
		// original meta-path is odd-length, we only need to traverse the
		// network for a single hop").
		start := time.Now()
		frontier = m.tr.Expand(frontier, p.Type(p.Hops()))
		m.stats.TraversalTime += time.Since(start)
		m.stats.TraversedVectors++
	}
	return frontier, nil
}

// combine advances frontier along the length-2 chunk through Combine. A
// chunk whose counts reach 2⁵³, where Combine's sums stop being order-free,
// is expanded hop by hop instead: the result is then Baseline's bit for bit
// whatever the counts.
func (m *indexedMaterializer) combine(chunk metapath.Path, frontier sparse.Vector) (sparse.Vector, error) {
	// One key build + one map probe per chunk; the per-vertex probes are then
	// pure array loads.
	tbl := m.ix.table(chunk)
	var err error
	out, exact := m.tr.Combine(frontier, func(u hin.VertexID) sparse.Vector {
		// probe's body, inlined: a call fewer per frontier vertex is ~5 % of a
		// 4-hop PM vector (BenchmarkNeighborVector).
		start := time.Now()
		vec, ok := m.ix.probe(tbl, u)
		m.stats.IndexedTime += time.Since(start)
		if ok {
			m.stats.IndexedVectors++
			return vec
		}
		if m.fill == nil {
			m.fill = metapath.NewTraverser(m.tr.Graph())
		}
		start = time.Now()
		vec, e := m.fill.NeighborVector(chunk, u)
		m.stats.TraversalTime += time.Since(start)
		m.stats.TraversedVectors++
		if e != nil {
			err = e
		}
		return vec
	}, chunk.Target())
	switch {
	case err != nil:
		return sparse.Vector{}, err
	case !exact:
		return m.traverseFrontier(chunk, 0, frontier), nil
	}
	return out, nil
}

func (m *indexedMaterializer) probe(t *pathTable, v hin.VertexID) (sparse.Vector, bool) {
	start := time.Now()
	vec, ok := m.ix.probe(t, v)
	// Probe time is index time whether the probe hits or misses — a miss
	// still paid the lookup, and dropping it would understate the "indexed"
	// share of Figure 4 style breakdowns for sparse indexes.
	m.stats.IndexedTime += time.Since(start)
	if ok {
		m.stats.IndexedVectors++
	}
	return vec, ok
}

func (m *indexedMaterializer) traverseFrontier(p metapath.Path, fromHop int, frontier sparse.Vector) sparse.Vector {
	start := time.Now()
	for hop := fromHop; hop < p.Hops(); hop++ {
		frontier = m.tr.Expand(frontier, p.Type(hop+1))
		// One traversal per hop actually expanded, so a long fallback walk
		// is not undercounted as a single vector.
		m.stats.TraversedVectors++
		if frontier.IsZero() {
			break
		}
	}
	m.stats.TraversalTime += time.Since(start)
	return frontier
}

// ---------------------------------------------------------------------------
// PM and SPM

// buildIndex is the one index build: Φ_p(v) by plain traversal for every
// path of paths (length 2, Section 6.2) from every vertex sources returns for
// the path's source type. Construction cost is deliberately front-loaded (it
// models an offline indexing phase).
func buildIndex(g *hin.Graph, strategy Strategy, paths []metapath.Path, sources func(hin.TypeID) []hin.VertexID) Materializer {
	tr := metapath.NewTraverser(g)
	ix := newPathIndex(g)
	for _, p := range paths {
		if p.Hops() != 2 {
			panic(fmt.Sprintf("core: %s pre-materializes length-2 paths only, got %v", strategy, p))
		}
		for _, v := range sources(p.Source()) {
			vec, err := tr.NeighborVector(p, v)
			if err != nil {
				// Unreachable: sources are handed out by type.
				panic(err)
			}
			ix.put(p, v, vec)
		}
	}
	return &indexedMaterializer{tr: tr, ix: ix, strategy: strategy}
}

// NewPM builds the full pre-materialization strategy: Φ vectors for every
// schema-valid length-2 meta-path from every vertex. Query time then pays
// only index lookups plus single-hop traversal for odd-length paths.
func NewPM(g *hin.Graph) Materializer {
	return NewPMPaths(g, allLength2Paths(g.Schema()))
}

// NewPMPaths builds PM restricted to a subset of length-2 meta-paths
// (Section 6.2: "we may compute all length-2 paths or only a subset").
func NewPMPaths(g *hin.Graph, paths []metapath.Path) Materializer {
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
func NewSPM(g *hin.Graph, initQueries []string, cfg SPMConfig) (Materializer, error) {
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
func NewSPMVertices(g *hin.Graph, vertices []hin.VertexID) Materializer {
	byType := make(map[hin.TypeID][]hin.VertexID)
	for _, v := range vertices {
		byType[g.Type(v)] = append(byType[g.Type(v)], v)
	}
	return buildIndex(g, StrategySPM, allLength2Paths(g.Schema()),
		func(t hin.TypeID) []hin.VertexID { return byType[t] })
}
