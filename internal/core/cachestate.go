package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// A materializer's store is what it keeps between queries, one per root
// indexed, shared by every view — every concurrent query of a workload
// (ExecuteBatch, ServePool): Cached's vectors and waist tables, the norm
// tables, the kept N of each (path, S) and the ghosts of S's seen once, the
// broadcast states a shard keeps, and every pool's compiled queries. It is a
// map and a recency list under one mutex, which also guards every charge to
// the store's byte account, so eviction always drops the global LRU tail. All
// counters are atomic, and concurrent misses on the same (path, vertex) are
// coalesced by a singleflight group so the network is traversed once, not
// once per worker.

// ckey identifies one cached Φ vector: the canonical subpath key (one byte
// per vertex type, metapath.Path.Key) and the source vertex — or, with the
// vertex normsOf, the path's norm table. It is a
// comparable struct rather than a concatenated string so building a probe
// key is two field copies — no per-lookup allocation — and the key of any
// prefix of a path is a substring of the full path's key, which in Go
// shares the backing bytes (probing every prefix allocates nothing).
type ckey struct {
	path string
	v    hin.VertexID
}

// normsOf is the vertex a norm table is keyed on, refOf the one a kept
// broadcast state is, under its digest, and numerOf the one a kept N is, under
// its path's key and S's digest (keptN): no vector is keyed on a negative
// vertex.
const (
	normsOf hin.VertexID = -1
	refOf   hin.VertexID = -2
	numerOf hin.VertexID = -3
)

// storeEntry is what the LRU holds: a vector (cacheEntry), a norm table
// (visPath), a kept broadcast state (keptRef) or a kept N or its ghost
// (keptN), each under its key and charged its bytes, which never change while
// it is held.
type storeEntry interface {
	ckey() ckey
	bytes() int64
}

type cacheEntry struct {
	key ckey
	vec sparse.Vector
}

func (e *cacheEntry) ckey() ckey   { return e.key }
func (e *cacheEntry) bytes() int64 { return cacheEntrySize(e.key, e.vec) }

// keptRef is a broadcast state a shard was asked to keep (RefsKeep).
type keptRef struct {
	key ckey
	st  ShardRefState
}

func (k *keptRef) ckey() ckey   { return k.key }
func (k *keptRef) bytes() int64 { return k.st.bytes() + indexEntryOverhead + int64(len(k.key.path)) }

// sharedCacheState is the store every view of one materializer shares
// (indexed.lru): the LRU (Cached's warm entries, the norm tables and kept
// N), the singleflight group and the store-wide counters. All counter fields
// are atomic so that CacheStats totals are exact under concurrency and
// readable without mu.
type sharedCacheState struct {
	g        *hin.Graph
	maxBytes int64
	// minKnown and minShare are the propagation crossover (candSideMinKnown,
	// candSideMinShare; tests lower them to reach the branch on small graphs).
	minKnown, minShare int

	// mu guards the LRU (entries, order), the waist tables and lines, the
	// compiled caches' list, and every charge to bytes: a charge and the
	// evictions it forces are one critical section (chargeLocked), and so is
	// putting an entry in another's place (admit). Lock order:
	// compiledCache.mu is never held while mu is taken; only the test-only
	// recomputeBytes nests mu → compiledCache.mu.
	mu      sync.Mutex
	entries map[ckey]*list.Element
	order   list.List // front = most recent; every element a storeEntry

	flight flightGroup

	// waists are the suffix-vector tables subpath misses finish from
	// (waist.go); their bytes are part of bytes below.
	waists waistSet

	// compiled are the compiled-query caches of the serve pools built over
	// this materializer, from newCompiledCache to close (compiled.go); their
	// bytes are part of bytes below, and compiledBytes is their sum.
	compiled      []*compiledCache
	compiledBytes atomic.Int64

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
}

// keptMaxBytes is the store's budget under Baseline, PM and SPM (-cache-mb
// sets Cached's): the norm tables and kept N, and a pool's compiled queries.
const keptMaxBytes = 64 << 20

func newSharedCacheState(g *hin.Graph, maxBytes int64) *sharedCacheState {
	return &sharedCacheState{g: g, maxBytes: maxBytes, minKnown: candSideMinKnown, minShare: candSideMinShare,
		entries: make(map[ckey]*list.Element), waists: waistSet{
			ratio: waistRatio, tableShare: waistTableShare, totalShare: waistTotalShare,
			tables: make(map[string]*waistTable), lines: make(map[string]string),
		}}
}

// lookup returns the entry under key, moved to the LRU front; nil when there
// is none, or no store.
func (st *sharedCacheState) lookup(key ckey) storeEntry {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[key]
	if !ok {
		return nil
	}
	st.order.MoveToFront(el)
	return el.Value.(storeEntry)
}

// get returns the vector under key and moves it to the LRU front.
func (st *sharedCacheState) get(key ckey) (sparse.Vector, bool) {
	if e, ok := st.lookup(key).(*cacheEntry); ok {
		return e.vec, true
	}
	return sparse.Vector{}, false
}

// indexEntryOverhead approximates the per-entry bookkeeping cost of a cache
// entry (map bucket share, vertex key, two slice headers).
const indexEntryOverhead = 4 + 2*24

func cacheEntrySize(key ckey, vec sparse.Vector) int64 {
	return int64(vec.Bytes()) + indexEntryOverhead + int64(len(key.path)) + 4
}

// prefixEntryShare caps one kept intermediate frontier at 1/prefixEntryShare
// of the cache budget: a single huge frontier must not evict the long tail of
// small, highly reusable entries. The size is the frontier's own — measured
// when the miss holds it, not estimated before. Evidence: BenchmarkWaist's
// budget= rows in BENCH_kernel.json and the served table in DESIGN.md
// "Subpath-decomposed cache".
const prefixEntryShare = 64

// resume is where a miss on the path with key pk starts at v: the longest
// kept prefix frontier and the hops it covers, or unit ({v}) and 0. A prefix
// of k types covers k-1 hops; the shortest one kept has 3 types: a one-hop
// prefix is one adjacency row, read faster than it is looked up. Probes move
// entries to the LRU front but are no Hits: the whole miss is one Miss.
func (st *sharedCacheState) resume(pk string, v hin.VertexID, unit sparse.Vector) (sparse.Vector, int) {
	for k := len(pk) - 1; k >= 3; k-- {
		if vec, ok := st.get(ckey{path: pk[:k], v: v}); ok {
			st.prefixHits.Add(1)
			st.hopsSaved.Add(int64(k - 1))
			return vec, k - 1
		}
	}
	return unit, 0
}

// keepPrefix keeps frontier, Φ at v of the prefix with key pk, for other
// misses to resume from: a non-zero one of 3 types or more, within its share
// of the budget, cloned out of hop scratch at the size of its non-zeros.
func (st *sharedCacheState) keepPrefix(pk string, v hin.VertexID, frontier sparse.Vector) {
	if key := (ckey{path: pk, v: v}); len(pk) >= 3 && !frontier.IsZero() && cacheEntrySize(key, frontier) <= st.maxBytes/prefixEntryShare {
		st.insert(key, frontier.Clone())
	}
}

// insert stores a vector at the LRU front and evicts LRU tails until the
// cache is back under its byte budget. An entry already under the key (two
// misses of different paths can both keep a shared prefix) holds the same
// vector — Φ is a function of (path, vertex) — and is only moved to the front.
func (st *sharedCacheState) insert(key ckey, vec sparse.Vector) {
	st.add(&cacheEntry{key: key, vec: vec})
}

// add is insert's body for any entry; a nil store keeps nothing.
func (st *sharedCacheState) add(e storeEntry) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key, size := e.ckey(), e.bytes()
	if el, ok := st.entries[key]; ok {
		st.order.MoveToFront(el)
		return
	}
	if size > st.maxBytes-st.waists.bytes.Load()-st.compiledBytes.Load() {
		return // larger than the whole LRU: do not thrash
	}
	st.entries[key] = st.order.PushFront(e)
	st.chargeLocked(size)
}

// admit puts e, a kept N or a ghost, at the LRU front in old's place — old is
// what the caller found under e's key, nil for nothing — unless another entry
// took that place since, or e does not fit (fitsLocked).
func (st *sharedCacheState) admit(old, e *keptN) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el := st.entries[e.key]
	if el == nil && old != nil || el != nil && el.Value != old || !st.fitsLocked(old, e, false) {
		return
	}
	st.fitsLocked(old, e, true)
	if el != nil {
		st.order.Remove(el)
	}
	st.entries[e.key] = st.order.PushFront(e)
	st.bytes.Add(e.bytes() - old.bytes())
}

// fits is fitsLocked, evicting nothing, under mu.
func (st *sharedCacheState) fits(old, e *keptN) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fitsLocked(old, e, false)
}

// fitsLocked reports whether e fits in old's place: in the room the budget
// leaves beside everything else, plus what e may evict — the kept N and
// ghosts of other S's for an N, other ghosts for a ghost, never any other
// entry, so a kept N displaces no norm — and with evict it evicts that, least
// recently used first, until e fits. The caller holds mu.
func (st *sharedCacheState) fitsLocked(old, e *keptN, evict bool) bool {
	need := e.bytes() - old.bytes() - st.maxBytes + st.bytes.Load()
	for el := st.order.Back(); need > 0 && el != nil; {
		prev := el.Prev()
		if k, ok := el.Value.(*keptN); ok && k != old && (e.vs != nil || k.vs == nil) {
			if need -= k.bytes(); evict {
				st.removeLocked(el)
			}
		}
		el = prev
	}
	return need <= 0
}

// chargeLocked moves the byte account by n — an entry, a norm table, a waist
// table or a compiled query — after evicting LRU tails until n fits the
// budget, so a reader of bytes never sees more than it. The caller holds mu.
func (st *sharedCacheState) chargeLocked(n int64) {
	for st.bytes.Load()+n > st.maxBytes && st.evictLocked() {
	}
	st.bytes.Add(n)
}

// evictLocked drops the LRU tail; false when the LRU is empty. The caller
// holds mu.
func (st *sharedCacheState) evictLocked() bool {
	tail := st.order.Back()
	if tail != nil {
		st.removeLocked(tail)
	}
	return tail != nil
}

// removeLocked evicts the entry at el. The caller holds mu.
func (st *sharedCacheState) removeLocked(el *list.Element) {
	e := st.order.Remove(el).(storeEntry)
	delete(st.entries, e.ckey())
	st.bytes.Add(-e.bytes())
	st.evictions.Add(1)
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
// the leader's result. fn runs outside the group lock. A panic in fn reaches
// the leader and its followers as the same *PanicError, and the key is
// released for the next load either way.
func (fg *flightGroup) do(key ckey, fn func() (sparse.Vector, error)) (vec sparse.Vector, err error) {
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
	defer func() {
		if r := recover(); r != nil {
			vec, err = sparse.Vector{}, newPanicError(r)
		}
		call.vec, call.err = vec, err
		fg.mu.Lock()
		delete(fg.m, key)
		fg.mu.Unlock()
		call.wg.Done()
	}()
	return fn()
}
