package core

import (
	"fmt"

	"netout/internal/obs"
)

// Registry-backed instruments over the existing stats structs. The design
// rule: wherever a stats struct is already the source of truth (the shared
// cache's atomic counters), the registry exposes it through
// CounterFunc/GaugeFunc reading the same atomics at scrape time — never a
// second counter that could drift. A /metrics scrape therefore matches
// CacheStatsOf exactly, by construction. How a query ended is counted once,
// by the engine (observeQuery); the serve pool counts none of it.

// RegisterMaterializerMetrics exposes a materializer on reg: netout_index_bytes
// for every strategy, and for the cached one the netout_cache_* family read
// from the cache's shared atomic counters (README's metric table says what
// each answers). A handle's MatStats are its own and unsynchronized; the
// engine's netout_vectors_* series sum them per query, exactly, under every
// strategy. IndexBytes reads the index, immutable after construction, and
// the store's byte account.
//
// Registration is idempotent per (registry, materializer): NewEngine calls it
// for an engine with a registry, and so may the materializer's owner.
func RegisterMaterializerMetrics(reg *obs.Registry, m *Materializer) {
	if !reg.Once(fmt.Sprintf("core:materializer-metrics:%p", m)) {
		return
	}
	reg.GaugeFunc("netout_index_bytes", "In-memory size of the pre-materialized index plus the materializer's store, one budget ranked by work per byte: cached vectors and waist tables, norm tables and kept numerators, a pool's compiled queries.",
		func() float64 { return float64(m.IndexBytes()) })
	if !m.cached() {
		return
	}
	st := m.lru
	reg.CounterFunc("netout_cache_hits_total", "Cache hits (including singleflight-deduplicated loads).",
		func() float64 { return float64(st.hits.Load()) })
	reg.CounterFunc("netout_cache_misses_total", "Cache misses (each one network traversal).",
		func() float64 { return float64(st.misses.Load()) })
	reg.CounterFunc("netout_cache_deduped_total", "Loads coalesced into another goroutine's in-flight traversal.",
		func() float64 { return float64(st.deduped.Load()) })
	reg.CounterFunc("netout_cache_evictions_total", "Store evictions under the byte budget.",
		func() float64 { return float64(st.evictions.Load()) })
	reg.CounterFunc("netout_cache_prefix_hits_total", "Misses resumed from a cached subpath prefix frontier.",
		func() float64 { return float64(st.prefixHits.Load()) })
	reg.CounterFunc("netout_cache_hops_saved_total", "Traversal hops subpath misses did not expand: those before a prefix resume and those after a waist.",
		func() float64 { return float64(st.hopsSaved.Load()) })
	reg.GaugeFunc("netout_cache_bytes", "Resident cache payload bytes.",
		func() float64 { return float64(st.bytes.Load()) })
}
