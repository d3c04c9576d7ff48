package core

import (
	"container/list"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Compiled queries. Equation (1) splits a query into a reference reduction
// computed once and a per-candidate score; over an immutable graph everything
// before the candidates — parse, validation, Engine.resolve's sets and paths,
// the canonical rendering, the reduction — is a pure function of the query
// text, so a ServePool computes it once per distinct text and a repeated query
// pays only for its candidates. The cache is the pool's, passed to the engine
// with each call (Engine.execute): Engine.Execute, ExecuteBatch, Explain,
// SuggestFeatures and progressive execution compile per call, which is what
// Baseline means in Figure 3.

const (
	// compiledShare bounds the entries at 1/compiledShare of the
	// materializer's store budget, charged to sharedCacheState.bytes like the
	// waist tables, so the store shrinks to what they leave and the process does
	// not grow. Evidence: the paired zipf_spill and zipf_warm runs in DESIGN.md
	// "Reference side".
	compiledShare = 8
	// compiledEntryShare caps one entry at 1/compiledEntryShare of the
	// entries' budget: a reduction that keeps |Sr| vectors (PathSim) must not
	// evict a hundred anchor queries, and is recomputed per query as before.
	compiledEntryShare = 8
	// compiledEntryOverhead is charged per entry beside what it holds: the
	// structs, the map and list slots, the slice headers.
	compiledEntryOverhead = 512
)

// compiledQuery is one text's entry. A retained entry is complete and
// read-only — any number of workers execute from it at once; a blank one
// (resolvedQuery nil) is a miss's private handle, carrying the cache and the
// key a clean execution retains its results under. Methods are nil-safe: a
// query outside a pool has no entry.
type compiledQuery struct {
	cache *compiledCache
	// key is the trimmed source text.
	key string
	// text is the canonical rendering capped for retention — what the
	// in-flight table and the event show ("" when the pool records neither).
	text string
	*resolvedQuery
	// scorers is the reduced reference side; nil when it alone would take the
	// entry past its share, and the reduction is then computed per query.
	scorers *queryScorers
	bytes   int64
	el      *list.Element
}

// resolved is the resolution and canonical text of a retained entry.
func (cq *compiledQuery) resolved() (*resolvedQuery, string) {
	if cq == nil {
		return nil, ""
	}
	return cq.resolvedQuery, cq.text
}

// memo is the retained reduction, nil when there is none.
func (cq *compiledQuery) memo() *queryScorers {
	if cq == nil {
		return nil
	}
	return cq.scorers
}

// labels says what the entry spared its execution, in the trace's words.
func (cq *compiledQuery) labels() (compiled, refSide string) {
	switch {
	case cq == nil:
		return "", ""
	case cq.resolvedQuery == nil:
		return "miss", "computed"
	case cq.scorers == nil:
		return "hit", "computed"
	}
	return "hit", "memo"
}

// size is what a complete entry is charged: the key, an estimate of the AST
// parsed from it (four times the text: a node and a string header per name),
// the rendering, 4 bytes per set member — once when Sr is Sc — and the
// scorers' vectors and directories.
func (cq *compiledQuery) size() int64 {
	n := compiledEntryOverhead + 5*int64(len(cq.key)) + int64(len(cq.text)) + 4*int64(len(cq.cands))
	if cq.q.ComparedTo != nil {
		n += 4 * int64(len(cq.refs))
	}
	return n + cq.scorers.bytes()
}

// bytes is the payload of the scorers' vectors and S's directories (0 for
// nil).
func (qs *queryScorers) bytes() int64 {
	if qs == nil {
		return 0
	}
	var n int64
	for _, rs := range qs.all() {
		n += rs.state().bytes() + int64(rs.dir.Bytes())
	}
	return n
}

// compiledCache is a pool's entries: text → compiledQuery, LRU among entries
// under a byte budget, shared by the pool's workers.
type compiledCache struct {
	budget, entryMax int64
	// state is the materializer's store the entries are charged to.
	state *sharedCacheState

	mu      sync.Mutex
	entries map[string]*compiledQuery
	order   list.List // front = most recent

	hits, misses atomic.Int64
	count, bytes atomic.Int64
}

// newCompiledCache sizes a pool's cache from its materializer's store; a
// Materializer that is no indexed gets a store of its own.
func newCompiledCache(mat Materializer) *compiledCache {
	st := newSharedCacheState(nil, keptMaxBytes)
	if cm, ok := mat.(*indexed); ok {
		st = cm.lru
	}
	c := &compiledCache{state: st, budget: st.maxBytes / compiledShare, entries: make(map[string]*compiledQuery)}
	c.entryMax = c.budget / compiledEntryShare
	st.mu.Lock()
	st.compiled = append(st.compiled, c)
	st.mu.Unlock()
	return c
}

// lookup returns the entry retained for src — two texts that differ only in
// surrounding whitespace share one — or, on a miss, a blank entry for retain.
// nil without a cache.
func (c *compiledCache) lookup(src string) *compiledQuery {
	if c == nil {
		return nil
	}
	key := strings.TrimSpace(src)
	c.mu.Lock()
	cq := c.entries[key]
	if cq != nil {
		c.order.MoveToFront(cq.el)
	}
	c.mu.Unlock()
	if cq != nil {
		c.hits.Add(1)
		return cq
	}
	c.misses.Add(1)
	return &compiledQuery{cache: c, key: key}
}

// retain keeps what a clean, complete execution of blank's text produced: the
// whole entry when it fits the per-entry share, the entry without the scorers
// when only they do not, nothing otherwise. A retained entry (a hit) and a
// missing one are no-ops. Least recently used entries go until the budget
// holds; the store's entries then give way for the net growth.
func (blank *compiledQuery) retain(text string, rq *resolvedQuery, scorers *queryScorers) {
	if blank == nil || blank.resolvedQuery != nil {
		return
	}
	c := blank.cache
	// The key is cloned: as a substring it would pin the whole request body.
	cq := &compiledQuery{key: strings.Clone(blank.key), text: text, resolvedQuery: rq, scorers: scorers}
	if cq.bytes = cq.size(); cq.bytes > c.entryMax {
		cq.scorers = nil
		if cq.bytes = cq.size(); cq.bytes > c.entryMax {
			return
		}
	}
	c.mu.Lock()
	if _, raced := c.entries[cq.key]; raced {
		c.mu.Unlock()
		return // a concurrent miss of the same text got here first
	}
	before := c.bytes.Load()
	cq.el = c.order.PushFront(cq)
	c.entries[cq.key] = cq
	c.count.Add(1)
	c.bytes.Add(cq.bytes)
	for c.bytes.Load() > c.budget { // stops before the new entry: it fits its share
		c.evictLocked(c.order.Back().Value.(*compiledQuery))
	}
	delta := c.bytes.Load() - before
	c.mu.Unlock()
	c.charge(delta)
}

// evictLocked unlinks one entry and gives back its bytes.
func (c *compiledCache) evictLocked(cq *compiledQuery) {
	c.order.Remove(cq.el)
	delete(c.entries, cq.key)
	c.count.Add(-1)
	c.bytes.Add(-cq.bytes)
}

// charge moves the store's byte account by delta and lets its entries make room.
// The caller does not hold c.mu (sharedCacheState.mu's lock order).
func (c *compiledCache) charge(delta int64) {
	st := c.state
	st.mu.Lock()
	st.compiledBytes.Add(delta)
	st.chargeLocked(delta)
	st.mu.Unlock()
}

// close drops every entry and releases their charge (ServePool.Close).
func (c *compiledCache) close() {
	c.mu.Lock()
	held := c.bytes.Load()
	for c.order.Len() > 0 {
		c.evictLocked(c.order.Back().Value.(*compiledQuery))
	}
	c.mu.Unlock()
	c.charge(-held)
	st := c.state
	st.mu.Lock()
	st.compiled = slices.DeleteFunc(st.compiled, func(x *compiledCache) bool { return x == c })
	st.mu.Unlock()
}
