package core

import (
	"fmt"

	"netout/internal/obs"
)

// Registry-backed instruments over the existing stats structs. The design
// rule: wherever a stats struct is already the source of truth (atomic
// counters in the sharded cache, the serve pool), the registry exposes it
// through CounterFunc/GaugeFunc reading the same atomics at scrape time —
// never a second counter that could drift. A /metrics scrape therefore
// matches Stats()/CacheStats()/ServeStats exactly, by construction.

// RegisterMaterializerMetrics exposes a materializer on reg: netout_index_bytes
// for every strategy, and for the cached one the netout_cache_* and
// netout_mat_* families read from its shared atomic counters (README's metric
// table says what each answers). Only the cached materializer's full MatStats
// are exported: its counters are safe to read from the scrape goroutine.
// Baseline and PM/SPM carry unsynchronized per-view stats, so for those only
// the index size — immutable after construction — is exposed.
//
// Registration is idempotent per (registry, materializer): NewEngine calls it
// for an engine with a registry, and so may the materializer's owner.
func RegisterMaterializerMetrics(reg *obs.Registry, m Materializer) {
	if !reg.Once(fmt.Sprintf("core:materializer-metrics:%T:%p", m, m)) {
		return
	}
	reg.GaugeFunc("netout_index_bytes", "In-memory size of the pre-materialized index or cache (baseline: norm tables and kept reverse walks).",
		func() float64 { return float64(m.IndexBytes()) })
	c, ok := m.(*cached)
	if !ok {
		return
	}
	st := c.state
	reg.CounterFunc("netout_cache_hits_total", "Cache hits (including singleflight-deduplicated loads).",
		func() float64 { return float64(st.hits.Load()) })
	reg.CounterFunc("netout_cache_misses_total", "Cache misses (each one network traversal).",
		func() float64 { return float64(st.misses.Load()) })
	reg.CounterFunc("netout_cache_deduped_total", "Loads coalesced into another goroutine's in-flight traversal.",
		func() float64 { return float64(st.deduped.Load()) })
	reg.CounterFunc("netout_cache_evictions_total", "LRU evictions under the byte budget.",
		func() float64 { return float64(st.evictions.Load()) })
	reg.CounterFunc("netout_cache_prefix_hits_total", "Misses resumed from a cached subpath prefix frontier.",
		func() float64 { return float64(st.prefixHits.Load()) })
	reg.CounterFunc("netout_cache_hops_saved_total", "Traversal hops subpath misses did not expand: those before a prefix resume and those after a waist.",
		func() float64 { return float64(st.hopsSaved.Load()) })
	reg.GaugeFunc("netout_cache_bytes", "Resident cache payload bytes.",
		func() float64 { return float64(st.bytes.Load()) })
	reg.CounterFunc("netout_mat_traversed_vectors_total", "Neighbor vectors materialized by network traversal.",
		func() float64 { return float64(st.traversedVecs.Load()) })
	reg.CounterFunc("netout_mat_indexed_vectors_total", "Neighbor vectors served warm from the cache.",
		func() float64 { return float64(st.indexedVecs.Load()) })
	reg.CounterFunc("netout_mat_traversal_seconds_total", "Seconds spent traversing the network for misses.",
		func() float64 { return float64(st.traversalNs.Load()) / 1e9 })
	reg.CounterFunc("netout_mat_indexed_seconds_total", "Seconds spent on warm loads and probes.",
		func() float64 { return float64(st.indexedNs.Load()) / 1e9 })
}
