package core

import (
	"fmt"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// StrategyCached is the cached materializer: no offline
// pre-materialization, but computed neighbor vectors are kept in a
// bounded-memory cache, so repeated workloads approach PM speed for their
// hot vertices without PM's index-build cost. It sits between the paper's
// Baseline and SPM: SPM picks its hot set offline from an initialization
// query set, the cache discovers it online.
const StrategyCached Strategy = 3

// CacheStats reports the cache's behaviour over every view, beyond the
// handles' MatStats.
type CacheStats struct {
	Hits, Misses, Evictions int64
	// Deduped counts loads that missed the cache but were served by another
	// goroutine's concurrent traversal of the same (path, vertex) — the
	// singleflight coalescing. Deduped loads are included in Hits (no
	// network work was done on that call), so Hits+Misses always equals the
	// number of loads: NeighborVector calls on a path of one hop or more.
	Deduped int64
	// PrefixHits counts misses that resumed traversal from a cached prefix
	// frontier instead of the source vertex, WaistFinishes misses that stopped
	// expanding at a waist of the path and combined the rest from a table of
	// suffix vectors; HopsSaved totals the hops both skipped. Either way the
	// load is still one Miss — it traverses the network for the other hops —
	// so the Hits+Misses == loads contract is unchanged.
	PrefixHits, WaistFinishes, HopsSaved int64
	// Bytes is what the cache holds: entries, waist tables and a pool's
	// compiled queries.
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

// NewCached returns a materializer that memoizes neighbor vectors in a
// cache bounded to maxBytes of vector payload (plus fixed per-entry
// overhead). maxBytes must be positive. It is the index with no table and
// the cache beside it.
//
// Entries are keyed on (canonical subpath, vertex): a miss on Φ_P(v) resumes
// hop-by-hop expansion from the longest cached prefix of P at v (an APAPA
// miss resumes from a cached APA entry, skipping two hops), intermediate
// frontiers small enough for the budget are kept for other paths to resume
// from, and a frontier that reaches a waist of the path — a type much smaller
// than its neighbours, like a venue between papers — is finished from a table
// of per-vertex suffix vectors under that budget too. Decomposed evaluation
// is bit-identical to whole-path traversal (see cachedLoad); only which work
// is skipped changes.
//
// Like every Materializer it is one goroutine's at a time. Views created with
// NewView share the same warm state, and concurrent misses of views on the
// same (path, vertex) traverse the network once (singleflight); each view
// counts its own work (Stats), the cache the work of all (CacheStatsOf).
func NewCached(g *hin.Graph, maxBytes int64) (*Materializer, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("core: cache size must be positive, got %d", maxBytes)
	}
	return newMaterializer(g, newPathIndex(g), StrategyCached, maxBytes), nil
}

// CacheStatsOf extracts cache counters, aggregated over every view, from a
// materializer created by NewCached (or any view of one); ok is false for
// other strategies.
func CacheStatsOf(m *Materializer) (CacheStats, bool) {
	if !m.cached() {
		return CacheStats{}, false
	}
	return m.lru.cacheStats(), true
}

// cacheKey builds the probe key for Φ_P(v). Path.Key is precomputed and
// ckey is a plain comparable struct, so this is allocation-free — it runs
// once per NeighborVector call on the hot path.
func cacheKey(p metapath.Path, v hin.VertexID) ckey {
	return ckey{path: p.Key(), v: v}
}

// cachedLoad is a load under the cache. A hit reads the store: one indexed
// vector. A miss walks, resuming from a kept prefix and finishing at a waist
// where it can, and inserts the result: one traversed vector, whatever it
// walked, and each fill one more. At most one goroutine per key walks: every
// other concurrent caller for it waits for that result, a hit with Deduped
// recording the coalescing. The leader re-checks the store inside the flight,
// so a load that raced with a completed insert is served warm too.
//
// Bit-identity: a kept prefix is, by induction, exactly the frontier
// whole-path traversal holds after that prefix's hops (it was itself produced
// by this expansion sequence from the seed vertex), and every expansion
// kernel is bit-equal, so resuming performs the identical floating-point
// operation sequence as Traverser.NeighborVector — Float64bits-equal output,
// not merely approximately equal. Finishing at a waist reassociates the
// additions instead, which is invisible exactly while every count is below
// 2⁵³ (Traverser.Combine checks, and says why); a combination that leaves
// that domain is thrown away and the hops are expanded after all.
//
// The flight holds the full key only: prefix probes and inserts take the
// cache's lock one at a time, so an entry evicted between probe and use
// merely degrades this call to more traversal — the probed vector itself is
// immutable and stays valid.
func (m *Materializer) cachedLoad(p metapath.Path, v hin.VertexID) (sparse.Vector, error) {
	st, key := m.lru, cacheKey(p, v)
	start := time.Now()
	vec, hit := st.get(key)
	var err error
	led := false
	if !hit {
		vec, err = st.flight.do(key, func() (sparse.Vector, error) {
			if vec, ok := st.get(key); ok {
				return vec, nil
			}
			led = true
			vec, work, err := m.walk(p, v)
			if err == nil {
				st.keep(key, vec, work)
			}
			return vec, err
		})
	}
	if led {
		m.misses++
		st.misses.Add(1)
		return vec, err
	}
	if !hit {
		st.deduped.Add(1)
	}
	m.hits++
	st.hits.Add(1)
	m.stats.IndexedTime += time.Since(start)
	m.stats.IndexedVectors++
	return vec, err
}
