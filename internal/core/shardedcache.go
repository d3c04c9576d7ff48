package core

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// The cached materializer's state is sharded so that a query-serving
// workload (ExecuteBatch, ServePool) can share one warm cache across all
// concurrent queries: the map/LRU bookkeeping is split over cacheShardCount
// mutex-guarded shards keyed by a hash of the cache key, all counters are
// atomic, and concurrent misses on the same (path, vertex) are coalesced by
// a singleflight group so the network is traversed once, not once per
// worker. Correctness does not depend on the shard count; it only bounds
// lock contention.

// cacheShardCount must be a power of two (the shard index is a bitmask).
const cacheShardCount = 16

// ckey identifies one cached Φ vector: the canonical subpath key (one byte
// per vertex type, metapath.Path.Key) and the source vertex. It is a
// comparable struct rather than a concatenated string so building a probe
// key is two field copies — no per-lookup allocation — and the key of any
// prefix of a path is a substring of the full path's key, which in Go
// shares the backing bytes (probing every prefix allocates nothing).
type ckey struct {
	path string
	v    hin.VertexID
}

type cacheEntry struct {
	key ckey
	vec sparse.Vector
}

// cacheShard is one mutex-guarded slice of the cache: a map for lookup and
// an LRU list for eviction order, with byte accounting local to the shard.
type cacheShard struct {
	mu      sync.Mutex
	entries map[ckey]*list.Element
	order   *list.List // front = most recent
	bytes   int64      // guarded by mu
}

func (sh *cacheShard) get(key ckey) (sparse.Vector, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return sparse.Vector{}, false
	}
	sh.order.MoveToFront(el)
	return el.Value.(*cacheEntry).vec, true
}

// sharedCacheState is the state every view of one cached materializer
// shares: the shard set (warm entries), the singleflight group, a traverser
// pool and the aggregated counters. All counter fields are atomic so that
// Stats/CacheStats totals are exact under concurrency.
type sharedCacheState struct {
	g        *hin.Graph
	maxBytes int64
	shards   [cacheShardCount]cacheShard
	flight   flightGroup

	// traversers pools per-goroutine scratch space for cache misses
	// (metapath.Traverser is not safe for concurrent use).
	traversers sync.Pool

	// waists are the suffix-vector tables subpath misses finish from
	// (waist.go); their bytes are part of bytes below.
	waists waistSet

	// compiled are the compiled-query caches of the serve pools built over
	// this materializer, from newCompiledCache to close (compiled.go); their
	// bytes are part of bytes below, and compiledBytes is their sum.
	compiledMu    sync.Mutex
	compiled      []*compiledCache
	compiledBytes atomic.Int64

	// victim rotates eviction across shards (approximate global LRU).
	victim atomic.Uint64

	bytes     atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	deduped   atomic.Int64

	// prefixHits counts misses that resumed from a cached proper-prefix
	// frontier instead of traversing from the source; hopsSaved totals the
	// hops misses did not expand: those before a resume and those after a
	// waist.
	prefixHits atomic.Int64
	hopsSaved  atomic.Int64

	indexedNs     atomic.Int64
	traversalNs   atomic.Int64
	indexedVecs   atomic.Int64
	traversedVecs atomic.Int64
}

func newSharedCacheState(g *hin.Graph, maxBytes int64) *sharedCacheState {
	st := &sharedCacheState{g: g, maxBytes: maxBytes, waists: waistSet{
		ratio: waistRatio, tableShare: waistTableShare, totalShare: waistTotalShare,
		tables: make(map[string]*waistTable), lines: make(map[string]string),
	}}
	st.traversers.New = func() any { return metapath.NewTraverser(g) }
	for i := range st.shards {
		st.shards[i].entries = make(map[ckey]*list.Element)
		st.shards[i].order = list.New()
	}
	return st
}

// shard maps a cache key to its shard by FNV-1a hash over the subpath bytes
// and the vertex ID.
func (st *sharedCacheState) shard(key ckey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key.path); i++ {
		h ^= uint64(key.path[i])
		h *= prime64
	}
	for shift := 0; shift < 32; shift += 8 {
		h ^= uint64(byte(key.v >> shift))
		h *= prime64
	}
	return &st.shards[h&(cacheShardCount-1)]
}

// indexEntryOverhead approximates the per-entry bookkeeping cost of a cache
// entry (map bucket share, vertex key, two slice headers).
const indexEntryOverhead = 4 + 2*24

func cacheEntrySize(key ckey, vec sparse.Vector) int64 {
	return int64(vec.Bytes()) + indexEntryOverhead + int64(len(key.path)) + 4
}

// lookup probes the cache, charging probe time and a hit to the counters.
func (st *sharedCacheState) lookup(key ckey) (sparse.Vector, bool) {
	start := time.Now()
	vec, ok := st.shard(key).get(key)
	if ok {
		st.indexedNs.Add(time.Since(start).Nanoseconds())
		st.indexedVecs.Add(1)
		st.hits.Add(1)
	}
	return vec, ok
}

// load resolves a miss: at most one goroutine per key traverses the
// network; every other concurrent caller for the same key waits for that
// result. The leader re-checks the cache inside the flight, so a load that
// raced with a completed insert is served warm too.
func (st *sharedCacheState) load(p metapath.Path, v hin.VertexID, key ckey) (sparse.Vector, error) {
	start := time.Now()
	traversed := false
	vec, err := st.flight.do(key, func() (sparse.Vector, error) {
		if vec, ok := st.shard(key).get(key); ok {
			return vec, nil
		}
		traversed = true
		return st.materializeDecomposed(p, v, key)
	})
	elapsed := time.Since(start).Nanoseconds()
	if traversed {
		// This goroutine led the flight and traversed the network.
		st.traversalNs.Add(elapsed)
		st.traversedVecs.Add(1)
		st.misses.Add(1)
	} else {
		// Served by another goroutine's in-flight traversal (or by the
		// re-check): no network work was done on this call, so it counts as
		// a warm load, with Deduped recording the coalescing.
		st.indexedNs.Add(elapsed)
		st.indexedVecs.Add(1)
		st.hits.Add(1)
		st.deduped.Add(1)
	}
	return vec, err
}

// prefixEntryShare caps one kept intermediate frontier at 1/prefixEntryShare
// of the cache budget: a single huge frontier must not evict the long tail of
// small, highly reusable entries. The size is the frontier's own — measured
// when the miss holds it, not estimated before. Evidence: BenchmarkWaist's
// budget= rows in BENCH_kernel.json and the served table in DESIGN.md
// "Subpath-decomposed cache".
const prefixEntryShare = 64

// materializeDecomposed computes Φ_P(v) by subpath decomposition: resume
// hop-by-hop expansion from the longest cached prefix frontier of P at v,
// keeping the intermediate frontiers that are small enough along the way, and
// stop expanding at the first waist the frontier reaches (waist.go): the rest
// of the path is then combined from that waist's table of suffix vectors.
//
// Bit-identity: a cached prefix entry is, by induction, exactly the frontier
// whole-path traversal holds after that prefix's hops (the entry was itself
// produced by this expansion sequence from the seed vertex), and every
// expansion kernel is bit-equal, so resuming performs the identical floating-
// point operation sequence as Traverser.NeighborVector — Float64bits-equal
// output, not merely approximately equal. Finishing at a waist reassociates
// the additions instead, which is invisible exactly while every count is
// below 2⁵³ (Traverser.Combine checks, and says why); a combination that
// leaves that domain is thrown away and the hops are expanded after all.
//
// The caller (load) holds the singleflight slot for the FULL key only;
// prefix probes and intermediate inserts touch one shard lock at a time, so
// an entry evicted between probe and use merely degrades this call to more
// traversal — the probed vector value itself is immutable and stays valid.
func (st *sharedCacheState) materializeDecomposed(p metapath.Path, v hin.VertexID, key ckey) (sparse.Vector, error) {
	pk := p.Key()
	// Probe prefixes longest-first. A prefix of k types covers k-1 hops; the
	// shortest one kept has 3 types: a one-hop prefix is one adjacency row,
	// read faster than it is looked up. Probes move entries to the LRU front
	// but do not count as Hits — the Hits+Misses == loads contract tracks
	// NeighborVector calls, and this whole call is one Miss.
	cur := sparse.Vector{Idx: []int32{int32(v)}, Val: []float64{1}}
	startHop := 0
	for k := p.Len() - 1; k >= 3; k-- {
		pref := ckey{path: pk[:k], v: v}
		if vec, ok := st.shard(pref).get(pref); ok {
			cur, startHop = vec, k-1
			break
		}
	}
	tr := st.traversers.Get().(*metapath.Traverser)
	defer st.traversers.Put(tr)
	for hop := startHop; hop < p.Hops(); hop++ {
		if !cur.IsZero() && isWaist(st.g, p, hop, st.waists.ratio) {
			vec, ok, err := st.finishAtWaist(tr, p, hop, cur)
			if err != nil {
				return sparse.Vector{}, err
			}
			if ok {
				cur = vec
				st.hopsSaved.Add(int64(p.Hops() - hop))
				st.waists.finished.Add(1)
				break
			}
		}
		// Only a frontier that escapes — to the caller or the cache — is
		// allocated; every intermediate lands in the traverser's hop scratch,
		// the previous one in the other slot.
		b := hop + 2 // types covered once this hop is done
		if b == p.Len() {
			cur = tr.Expand(cur, p.Type(hop+1))
			break
		}
		cur = tr.ExpandScratch(cur, p.Type(hop+1), hop)
		if cur.IsZero() {
			break // empty frontier: Φ_P(v) is zero, like whole-path traversal
		}
		if pref := (ckey{path: pk[:b], v: v}); b >= 3 && cacheEntrySize(pref, cur) <= st.maxBytes/prefixEntryShare {
			st.insert(pref, cur.Clone()) // at the size of its non-zeros
		}
	}
	if cur.IsZero() {
		cur = sparse.Vector{} // never a view of hop scratch
	}
	st.insert(key, cur)
	if startHop > 0 {
		st.prefixHits.Add(1)
		st.hopsSaved.Add(int64(startHop))
	}
	return cur, nil
}

// insert stores a vector, superseding any entry already present under the
// same key (its element is unlinked and its bytes reclaimed — with
// singleflight this is rare, but eviction between a flight's re-check and
// its insert can race a second flight for the same key). The global byte
// budget is then enforced by evicting LRU tails, rotating across shards.
func (st *sharedCacheState) insert(key ckey, vec sparse.Vector) {
	size := cacheEntrySize(key, vec)
	if size > st.maxBytes-st.waists.bytes.Load()-st.compiledBytes.Load() {
		return // larger than the whole LRU: do not thrash
	}
	sh := st.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		oldSize := cacheEntrySize(old.key, old.vec)
		sh.order.Remove(el)
		delete(sh.entries, key)
		sh.bytes -= oldSize
		st.bytes.Add(-oldSize)
	}
	sh.entries[key] = sh.order.PushFront(&cacheEntry{key: key, vec: vec})
	sh.bytes += size
	sh.mu.Unlock()
	st.bytes.Add(size)
	st.enforceBudget()
}

// enforceBudget evicts LRU tails, rotating across shards, until the cache —
// entries, waist tables and compiled queries — is back under its byte budget.
func (st *sharedCacheState) enforceBudget() {
	for st.bytes.Load() > st.maxBytes && st.evictOne() {
	}
}

// evictOne drops the LRU tail of the next non-empty shard in rotation.
// Per-shard LRU with a rotating victim approximates global LRU while never
// holding more than one shard lock at a time.
func (st *sharedCacheState) evictOne() bool {
	for i := 0; i < cacheShardCount; i++ {
		sh := &st.shards[st.victim.Add(1)&(cacheShardCount-1)]
		sh.mu.Lock()
		tail := sh.order.Back()
		if tail == nil {
			sh.mu.Unlock()
			continue
		}
		e := tail.Value.(*cacheEntry)
		size := cacheEntrySize(e.key, e.vec)
		sh.order.Remove(tail)
		delete(sh.entries, e.key)
		sh.bytes -= size
		sh.mu.Unlock()
		st.bytes.Add(-size)
		st.evictions.Add(1)
		return true
	}
	return false
}

func (st *sharedCacheState) matStats() MatStats {
	return MatStats{
		IndexedTime:      time.Duration(st.indexedNs.Load()),
		TraversalTime:    time.Duration(st.traversalNs.Load()),
		IndexedVectors:   st.indexedVecs.Load(),
		TraversedVectors: st.traversedVecs.Load(),
	}
}

func (st *sharedCacheState) cacheStats() CacheStats {
	return CacheStats{
		Hits:          st.hits.Load(),
		Misses:        st.misses.Load(),
		Evictions:     st.evictions.Load(),
		Deduped:       st.deduped.Load(),
		PrefixHits:    st.prefixHits.Load(),
		HopsSaved:     st.hopsSaved.Load(),
		WaistFinishes: st.waists.finished.Load(),
		Bytes:         st.bytes.Load(),
	}
}

// recomputeBytes walks every shard, every waist table and every attached
// compiled cache and re-sums what they hold; tests use it to verify the atomic
// byte accounting against ground truth.
func (st *sharedCacheState) recomputeBytes() int64 {
	total := st.recomputeWaistBytes()
	st.compiledMu.Lock()
	for _, c := range st.compiled {
		total += c.recomputeBytes()
	}
	st.compiledMu.Unlock()
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			total += cacheEntrySize(e.key, e.vec)
		}
		sh.mu.Unlock()
	}
	return total
}

// ---------------------------------------------------------------------------
// Singleflight

// flightCall is one in-flight materialization; waiters block on wg.
type flightCall struct {
	wg  sync.WaitGroup
	vec sparse.Vector
	err error
}

// flightGroup deduplicates concurrent loads per key (a minimal
// singleflight: no external dependency, vector-typed results).
type flightGroup struct {
	mu sync.Mutex
	m  map[ckey]*flightCall
}

// do runs fn once per key among concurrent callers; every caller receives
// the leader's result. fn runs outside the group lock.
func (fg *flightGroup) do(key ckey, fn func() (sparse.Vector, error)) (sparse.Vector, error) {
	fg.mu.Lock()
	if fg.m == nil {
		fg.m = make(map[ckey]*flightCall)
	}
	if call, ok := fg.m[key]; ok {
		fg.mu.Unlock()
		call.wg.Wait()
		return call.vec, call.err
	}
	call := &flightCall{}
	call.wg.Add(1)
	fg.m[key] = call
	fg.mu.Unlock()

	call.vec, call.err = fn()

	fg.mu.Lock()
	delete(fg.m, key)
	fg.mu.Unlock()
	call.wg.Done()
	return call.vec, call.err
}
