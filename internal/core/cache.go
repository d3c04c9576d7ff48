package core

import (
	"fmt"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// StrategyCached is the LRU-cached materializer: no offline
// pre-materialization, but computed neighbor vectors are kept in a
// bounded-memory cache, so repeated workloads approach PM speed for their
// hot vertices without PM's index-build cost. It sits between the paper's
// Baseline and SPM: SPM picks its hot set offline from an initialization
// query set, the cache discovers it online.
const StrategyCached Strategy = 3

// cached is a handle on a shared, concurrency-safe cache (see
// cachestate.go). Unlike the other materializers it IS safe for
// concurrent use, and NewView returns handles on the same LRU, so a
// batch or serving workload shares one warm cache across all workers.
type cached struct {
	state *sharedCacheState
}

// CacheStats reports cache behaviour beyond the shared MatStats.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Deduped counts loads that missed the cache but were served by another
	// goroutine's concurrent traversal of the same (path, vertex) — the
	// singleflight coalescing. Deduped loads are included in Hits (no
	// network work was done on that call), so Hits+Misses always equals the
	// number of NeighborVector calls.
	Deduped int64
	// PrefixHits counts misses that resumed traversal from a cached prefix
	// frontier instead of the source vertex, WaistFinishes misses that stopped
	// expanding at a waist of the path and combined the rest from a table of
	// suffix vectors; HopsSaved totals the hops both skipped. Either way the
	// load is still one Miss — it traverses the network for the other hops —
	// so the Hits+Misses == loads contract is unchanged.
	PrefixHits, WaistFinishes, HopsSaved int64
	// Bytes is what the cache holds: entries and waist tables.
	Bytes int64
}

// HitRate returns Hits/(Hits+Misses) in [0,1], or 0 before any load —
// the zero-traffic guard every display site would otherwise hand-roll.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the counters for terminal display.
func (s CacheStats) String() string {
	out := fmt.Sprintf("hits %d, misses %d (%.1f%% hit rate), deduped %d, evictions %d, %.1f MB resident",
		s.Hits, s.Misses, 100*s.HitRate(), s.Deduped, s.Evictions, float64(s.Bytes)/1e6)
	if s.PrefixHits > 0 || s.WaistFinishes > 0 {
		out += fmt.Sprintf(", %d prefix resumes, %d misses finished at a waist (%d hops saved)", s.PrefixHits, s.WaistFinishes, s.HopsSaved)
	}
	return out
}

// NewCached returns a materializer that memoizes neighbor vectors in an
// LRU cache bounded to maxBytes of vector payload (plus fixed per-entry
// overhead). maxBytes must be positive.
//
// Entries are keyed on (canonical subpath, vertex): a miss on Φ_P(v) resumes
// hop-by-hop expansion from the longest cached prefix of P at v (an APAPA
// miss resumes from a cached APA entry, skipping two hops), intermediate
// frontiers small enough for the budget are kept for other paths to resume
// from, and a frontier that reaches a waist of the path — a type much smaller
// than its neighbours, like a venue between papers — is finished from a table
// of per-vertex suffix vectors under that budget too. Decomposed evaluation
// is bit-identical to whole-path traversal (see materializeDecomposed); only
// which work is skipped changes.
//
// The cache is safe for concurrent use, and concurrent misses on the same
// (path, vertex) traverse the network once (singleflight). Views created
// with NewView share the same warm state and counters.
func NewCached(g *hin.Graph, maxBytes int64) (Materializer, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("core: cache size must be positive, got %d", maxBytes)
	}
	return &cached{state: newSharedCacheState(g, maxBytes)}, nil
}

func (c *cached) view() (Materializer, error) { return &cached{state: c.state}, nil }

func (c *cached) Strategy() Strategy { return StrategyCached }
func (c *cached) IndexBytes() int64  { return c.state.bytes.Load() }
func (c *cached) Stats() MatStats    { return c.state.matStats() }

// CacheStatsOf extracts cache counters, aggregated over every view, from a
// materializer created by NewCached (or any view of one); ok is false for
// other strategies.
func CacheStatsOf(m Materializer) (CacheStats, bool) {
	c, ok := m.(*cached)
	if !ok {
		return CacheStats{}, false
	}
	return c.state.cacheStats(), true
}

// cacheKey builds the probe key for Φ_P(v). Path.Key is precomputed and
// ckey is a plain comparable struct, so this is allocation-free — it runs
// once per NeighborVector call on the hot path.
func cacheKey(p metapath.Path, v hin.VertexID) ckey {
	return ckey{path: p.Key(), v: v}
}

func (c *cached) NeighborVector(p metapath.Path, v hin.VertexID) (sparse.Vector, error) {
	if err := metapath.CheckSource(c.state.g, p, v); err != nil {
		return sparse.Vector{}, err
	}
	key := cacheKey(p, v)
	if vec, ok := c.state.lookup(key); ok {
		return vec, nil
	}
	return c.state.load(p, v, key)
}
