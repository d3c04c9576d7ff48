package core

import (
	"strings"
	"sync/atomic"

	"netout/internal/hin"
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

// compiledEntryOverhead is charged per entry beside what it holds: the
// structs, the map and list slots, the slice headers.
const compiledEntryOverhead = 512

// compiledQuery is one text's entry, an entry of the store (storeEntry)
// worth the walks its resolution and reduction read. A retained entry is
// complete and read-only — any number of workers execute from it at once; a
// blank one (resolvedQuery nil) is a miss's private handle, carrying the cache
// and the key a clean execution retains its results under. Methods are
// nil-safe: a query outside a pool has no entry.
type compiledQuery struct {
	rank
	cache *compiledCache
	// key is the trimmed source text under the pool's tag.
	key ckey
	// text is the canonical rendering capped for retention — what the
	// in-flight table and the event show ("" when the pool records neither).
	text string
	*resolvedQuery
	// scorers is the reduced reference side; nil when it alone would take the
	// entry past the cap, and the reduction is then computed per query.
	scorers *queryScorers
	charged int64
}

func (cq *compiledQuery) ckey() ckey   { return cq.key }
func (cq *compiledQuery) bytes() int64 { return cq.charged }

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
	n := compiledEntryOverhead + 5*int64(len(cq.key.path)) + int64(len(cq.text)) + 4*int64(len(cq.cands))
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

// compiledCache is a pool's view of its entries in its materializer's store:
// the tag they are keyed under, and their counters. The store keeps count and
// bytes as it takes entries in and gives them up.
type compiledCache struct {
	state *sharedCacheState
	tag   hin.VertexID

	hits, misses atomic.Int64
	count, bytes atomic.Int64
}

// newCompiledCache keys a pool's entries in its materializer's store; a
// Materializer that is no indexed gets a store of its own.
func newCompiledCache(mat Materializer) *compiledCache {
	st := newSharedCacheState(nil, keptMaxBytes)
	if cm, ok := mat.(*indexed); ok {
		st = cm.lru
	}
	return &compiledCache{state: st, tag: waistOf - hin.VertexID(st.pools.Add(1))}
}

// lookup returns the entry retained for src — two texts that differ only in
// surrounding whitespace share one — or, on a miss, a blank entry for retain.
// nil without a cache.
func (c *compiledCache) lookup(src string) *compiledQuery {
	if c == nil {
		return nil
	}
	key := ckey{path: strings.TrimSpace(src), v: c.tag}
	if cq, ok := c.state.lookup(key).(*compiledQuery); ok {
		c.hits.Add(1)
		return cq
	}
	c.misses.Add(1)
	return &compiledQuery{cache: c, key: key}
}

// retain offers the store what a clean, complete execution of blank's text
// produced, worth the walks that resolved it and, with the scorers, reduced
// it: the whole entry when it is within the cap (entryShare), the entry
// without the scorers when only they take it past, nothing otherwise. A
// retained entry (a hit) and a missing one are no-ops.
func (blank *compiledQuery) retain(text string, rq *resolvedQuery, scorers *queryScorers, reduced int64) {
	if blank == nil || blank.resolvedQuery != nil {
		return
	}
	st := blank.cache.state
	// The key is cloned: as a substring it would pin the whole request body.
	cq := &compiledQuery{cache: blank.cache, key: ckey{path: strings.Clone(blank.key.path), v: blank.key.v}, text: text,
		resolvedQuery: rq, scorers: scorers, rank: rank{work: rq.setWork + reduced}}
	if cq.charged = cq.size(); cq.charged > st.maxBytes/entryShare {
		cq.scorers, cq.work = nil, rq.setWork
		if cq.charged = cq.size(); cq.charged > st.maxBytes/entryShare {
			return
		}
	}
	st.add(cq)
}

// close takes the pool's entries out of the store (ServePool.Close).
func (c *compiledCache) close() {
	st := c.state
	st.mu.Lock()
	defer st.mu.Unlock()
	for key, el := range st.entries {
		if key.v == c.tag {
			st.dropLocked(el)
		}
	}
}
