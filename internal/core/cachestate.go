package core

import (
	"cmp"
	"container/list"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// A materializer's store is what it keeps between queries, one per root
// Materializer, shared by every view — every concurrent query of a workload
// (ExecuteBatch, ServePool): Cached's vectors and waist tables, the norm
// tables, the kept N of each (path, S), the broadcast states a shard keeps,
// and every pool's compiled queries. It is a map and one recency list per
// class of worth under one mutex, which also guards every charge to the
// store's one byte account, so eviction always drops the entry that saves the
// least work per byte (GreedyDual-Size, below), whatever its kind. All counters are atomic, and concurrent misses on
// the same (path, vertex) are coalesced by a singleflight group so the network
// is traversed once, not once per worker.

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
// broadcast state is, under its digest, numerOf the one a kept N is, under its
// path's key and S's digest (keptN), and waistOf the one a waist table is,
// under its suffix's key; a pool's compiled queries are keyed on their text
// and a vertex below waistOf, the pool's own (compiledCache.tag): no vector is
// keyed on a negative vertex.
const (
	normsOf hin.VertexID = -1
	refOf   hin.VertexID = -2
	numerOf hin.VertexID = -3
	waistOf hin.VertexID = -4
)

// storeEntry is what the store holds: a vector (cacheEntry), a norm table
// (visPath), a waist table (waistTable), a compiled query (compiledQuery), a
// kept broadcast state (keptRef) or a kept N (keptN), each under its key,
// charged its bytes and ranked by its work. Its bytes change only
// under mu, with the charge (a waist table's fill, rerankLocked).
type storeEntry interface {
	ckey() ckey
	bytes() int64
	ranked() *rank
}

// rank is where the store ranks an entry, under its mu: GreedyDual-Size (Cao
// & Irani, 1997) in CAMP's form (Ghandeharizadeh et al., 2014). Its priority h
// is the floor L at its last use plus its class's worth, its work per byte
// rounded down to a power of two; the victim has the least h, the least
// recent use (tick) of a tie, and L rises to its h, so an entry nobody uses
// ages below new ones whatever it saved. Within a class both grow with each
// use, so the victim is a class's tail: a use is O(1) and allocates nothing.
//
// An entry's work is the adjacency and suffix-vector entries
// (metapath.Traverser.Work) the walks that made it read, which a rebuild
// would read again.
type rank struct {
	work     int64
	h, worth float64
	tick     uint64
	class    int
}

func (r *rank) ranked() *rank { return r }

// compare orders entries by eviction: least h first, then least recent use.
func (r *rank) compare(o *rank) int {
	return cmp.Or(cmp.Compare(r.h, o.h), cmp.Compare(r.tick, o.tick))
}

// classOf is the class of an entry that saved work in bytes: 0 when it saved
// none (a fresh norm table), else c for a work per byte in [2^(c-33),
// 2^(c-32)), clamped to the classes there are.
func classOf(work, bytes int64) (c int) {
	if work > 0 {
		_, exp := math.Frexp(float64(work) / float64(max(bytes, 1)))
		c = min(max(exp+classBias, 1), classes-1)
	}
	return c
}

const classes, classBias = 64, 32

type cacheEntry struct {
	rank
	key ckey
	vec sparse.Vector
}

func (e *cacheEntry) ckey() ckey   { return e.key }
func (e *cacheEntry) bytes() int64 { return cacheEntrySize(e.key, e.vec) }

// keptRef is a broadcast state a shard was asked to keep (RefsKeep), beside
// the key of its kept N on the path it was last scored along (numerKey). The
// walk that made S ran on the coordinator: what keeping it saves the shard is
// decoding S again, so its work is S's entries.
type keptRef struct {
	rank
	key   ckey
	st    ShardRefState
	numer atomic.Pointer[ckey]
}

func (k *keptRef) ckey() ckey   { return k.key }
func (k *keptRef) bytes() int64 { return k.st.bytes() + indexEntryOverhead + int64(len(k.key.path)) }

// numerKey is the store key of S's kept N on p (queryScorers.numerKey), made
// once per path S is scored along in turn.
func (k *keptRef) numerKey(p metapath.Path) ckey {
	pk := p.Key()
	if key := k.numer.Load(); key != nil && len(key.path) == len(pk)+len(k.st.Digest) && strings.HasPrefix(key.path, pk) {
		return *key
	}
	key := numerKey(pk, k.st.Digest)
	k.numer.Store(&key)
	return key
}

// numerKey is the store key of the kept N on the path with key pk of the S
// with digest d.
func numerKey(pk string, d [32]byte) ckey { return ckey{path: pk + string(d[:]), v: numerOf} }

// sharedCacheState is the store every view of one materializer shares
// (Materializer.lru): its entries (every kind storeEntry names), the singleflight
// group and the store-wide counters. All counter fields are atomic so that
// CacheStats totals are exact under concurrency and readable without mu.
type sharedCacheState struct {
	g        *hin.Graph
	maxBytes int64
	// minKnown and minShare are the propagation crossover (candSideMinKnown,
	// candSideMinShare; tests lower them to reach the branch on small graphs).
	minKnown, minShare int

	// mu guards the entries (entries, order, every rank, floor, tick), the
	// waist lines and every charge to bytes: a charge and the evictions it
	// forces are one critical section (chargeLocked).
	mu      sync.Mutex
	entries map[ckey]*list.Element
	// order[c] is class c's entries (storeEntry), front = most recent; floor is
	// GreedyDual's L, tick counts uses.
	order [classes]list.List
	floor float64
	tick  uint64

	flight flightGroup

	// waists is what the store knows of its waist tables beside the entries
	// (waist.go).
	waists waistSet
	// pools numbers the serve pools built over this store: pool n's compiled
	// queries are keyed on the vertex waistOf-n.
	pools atomic.Int32

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
		entries: make(map[ckey]*list.Element), waists: waistSet{ratio: waistRatio, lines: make(map[string]string)}}
}

// lookup returns the entry under key, used (touchLocked); nil when there is
// none.
func (st *sharedCacheState) lookup(key ckey) storeEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[key]
	if !ok {
		return nil
	}
	return st.touchLocked(el)
}

// get returns the vector under key, used.
func (st *sharedCacheState) get(key ckey) (sparse.Vector, bool) {
	if e, ok := st.lookup(key).(*cacheEntry); ok {
		return e.vec, true
	}
	return sparse.Vector{}, false
}

// pushLocked enters e, not held, in its class, worth its class's work per
// byte (0 for class 0), and uses it; the caller holds mu and charges its
// bytes. touchLocked uses the entry at el: to the front of its class, its
// priority L plus its worth.
func (st *sharedCacheState) pushLocked(e storeEntry) {
	r := e.ranked()
	r.class = classOf(r.work, e.bytes())
	r.worth = math.Ldexp(float64(min(r.class, 1)), r.class-classBias-1)
	el := st.order[r.class].PushFront(e)
	st.entries[e.ckey()] = el
	st.touchLocked(el)
}

func (st *sharedCacheState) touchLocked(el *list.Element) storeEntry {
	e := el.Value.(storeEntry)
	r := e.ranked()
	st.order[r.class].MoveToFront(el)
	st.tick++
	r.h, r.tick = st.floor+r.worth, st.tick
	return e
}

// indexEntryOverhead approximates the per-entry bookkeeping cost of a cache
// entry (map bucket share, vertex key, two slice headers).
const indexEntryOverhead = 4 + 2*24

func cacheEntrySize(key ckey, vec sparse.Vector) int64 {
	return int64(vec.Bytes()) + indexEntryOverhead + int64(len(key.path)) + 4
}

// entryShare caps one entry a query offers the store — a kept intermediate
// frontier (keepPrefix), a compiled query (compiledQuery.retain) — at
// 1/entryShare of the budget: a single huge offer must not evict the long tail
// of small, highly reusable entries. The size is the entry's own, measured
// when the query holds it, not estimated before. Evidence: BenchmarkWaist's
// budget= rows in BENCH_kernel.json and the served table in DESIGN.md
// "Subpath-decomposed cache"; beside the work-per-byte rule, its spill list
// reads 45.3k entries per query with the cap and 46.3k without.
const entryShare = 64

// resume is where a miss on the path with key pk starts at v: the longest
// kept prefix frontier, the hops it covers and the work it saved, or unit
// ({v}), 0 and 0. A prefix of k types covers k-1 hops; the shortest one kept
// has 3 types: a one-hop prefix is one adjacency row, read faster than it is
// looked up. Probes use entries but are no Hits: the whole miss is one Miss.
func (st *sharedCacheState) resume(pk string, v hin.VertexID, unit sparse.Vector) (sparse.Vector, int, int64) {
	for k := len(pk) - 1; k >= 3; k-- {
		if e, ok := st.lookup(ckey{path: pk[:k], v: v}).(*cacheEntry); ok {
			st.prefixHits.Add(1)
			st.hopsSaved.Add(int64(k - 1))
			return e.vec, k - 1, e.work
		}
	}
	return unit, 0, 0
}

// keepPrefix keeps frontier, Φ at v of the prefix with key pk, worth work,
// for other misses to resume from: a non-zero one of 3 types or more, within
// the cap (entryShare), cloned out of hop scratch at the size of its
// non-zeros.
func (st *sharedCacheState) keepPrefix(pk string, v hin.VertexID, frontier sparse.Vector, work int64) {
	if key := (ckey{path: pk, v: v}); len(pk) >= 3 && !frontier.IsZero() && cacheEntrySize(key, frontier) <= st.maxBytes/entryShare {
		st.keep(key, frontier.Clone(), work)
	}
}

// keep stores a vector worth work (put). An entry already under the key (two
// misses of different paths can both keep a shared prefix) holds the same
// vector — Φ is a function of (path, vertex) — and is only used.
func (st *sharedCacheState) keep(key ckey, vec sparse.Vector, work int64) {
	st.put(&cacheEntry{key: key, vec: vec, rank: rank{work: work}})
}

// put enters e unless an entry holds its key, which is then only used. An e
// larger than the whole budget is refused, so it does not thrash; any other
// is charged (chargeLocked) and evicts by the one rule, whatever the kinds.
func (st *sharedCacheState) put(e storeEntry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el := st.entries[e.ckey()]; el != nil {
		st.touchLocked(el)
		return
	}
	size := e.bytes()
	if size > st.maxBytes {
		return
	}
	st.chargeLocked(size)
	st.pushLocked(e)
	if cq, ok := e.(*compiledQuery); ok {
		cq.cache.count.Add(1)
		cq.cache.bytes.Add(size)
	}
}

// chargeLocked moves the byte account by n — an entry, or a waist table's
// fill — after evicting until n fits the budget, so a reader of bytes never
// sees more than it. The caller holds mu.
func (st *sharedCacheState) chargeLocked(n int64) {
	for st.bytes.Load()+n > st.maxBytes && st.evictLocked() {
	}
	st.bytes.Add(n)
}

// evictLocked drops the entry of least priority, the least recently used of
// a tie, and raises L to its priority; false when there is none. The caller
// holds mu.
func (st *sharedCacheState) evictLocked() bool {
	var victim *list.Element
	for c := range st.order {
		if el := st.order[c].Back(); el != nil && (victim == nil || el.Value.(storeEntry).ranked().compare(victim.Value.(storeEntry).ranked()) < 0) {
			victim = el
		}
	}
	if victim != nil {
		st.removeLocked(victim)
	}
	return victim != nil
}

// rerankLocked puts the entry at el, now worth work, in its class again —
// that of its work and its bytes, which grow by grow — and uses it. It is out
// of the order while grow is charged, so it is not its own victim. The caller
// holds mu and has grown the entry.
func (st *sharedCacheState) rerankLocked(el *list.Element, work, grow int64) {
	e := el.Value.(storeEntry)
	r := e.ranked()
	st.order[r.class].Remove(el)
	st.chargeLocked(grow)
	r.work = work
	st.pushLocked(e)
}

// removeLocked evicts the entry at el, raising L to its priority. The caller
// holds mu.
func (st *sharedCacheState) removeLocked(el *list.Element) {
	st.floor = max(st.floor, el.Value.(storeEntry).ranked().h)
	st.evictions.Add(1)
	st.dropLocked(el)
}

// dropLocked takes the entry at el out of the store and gives back its bytes.
// The caller holds mu.
func (st *sharedCacheState) dropLocked(el *list.Element) {
	e := el.Value.(storeEntry)
	st.order[e.ranked().class].Remove(el)
	delete(st.entries, e.ckey())
	st.bytes.Add(-e.bytes())
	if cq, ok := e.(*compiledQuery); ok {
		cq.cache.count.Add(-1)
		cq.cache.bytes.Add(-cq.charged)
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
