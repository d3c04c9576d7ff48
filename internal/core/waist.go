package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// Waist tables: where a subpath-cache miss stops expanding and finishes by
// Section 6.2's decomposition, Φ_{P1·P2}(v) = Σ_j |π_P1(v,vj)|·Φ_P2(vj).
//
// A waist is an interior boundary of a path whose type is much smaller than
// the types on both sides of it (a venue between papers): every walk is
// squeezed through a few vertices there and fans out again, so the rest of
// the path is a weighted sum of a few per-vertex vectors that every other
// walk through the same vertices needs too. Those vectors — Φ_{P[b:]}(u) for
// each vertex u of the waist's type — live in a waistTable, filled on first
// use by one plain traversal and never evicted one by one: the store beside it
// holds few entries on a small budget and would churn exactly the entries
// every miss needs. The tables are charged to the cache's byte budget
// (sharedCacheState.bytes), so the store shrinks to what they leave; a table
// that outgrows its share is dropped whole and its suffix expanded from then
// on.

const (
	// waistRatio is how many times smaller than BOTH its neighbours on the path
	// a type must be for its boundary to be a waist: one slot then stands for at
	// least that many vertices on either side, so a table is small next to the
	// entries it competes with for the budget and every slot is shared widely.
	// It is a screen for bytes, not for time. In BenchmarkWaist's waist= rows
	// (BENCH_kernel.json; table in DESIGN.md "Subpath-decomposed cache")
	// combining beats expanding per miss wherever it was measured — 4–370× on
	// the generator's venues at 290, 33 and 16 papers per venue (rule: yes),
	// 3–10× at 8 and 2, 4–32× at its terms (10 papers each) and authors (4;
	// rule: no) — while a full table grows from 34–146 KiB at 290 papers per
	// venue to 0.3–3.4 MiB at 16 and 0.4–26 MiB below, and the author and term
	// tables take 0.4–1.3 MiB: a small cache's whole allowance for tables, of
	// which they would fill a quarter before being dropped.
	waistRatio = 16
	// waistTableShare and waistTotalShare bound the tables by what they
	// actually hold: one table at most 1/waistTableShare of the byte budget,
	// all of them together 1/waistTotalShare. In BenchmarkWaist's budget= rows
	// (a spill-shaped load list on a 1 MiB cache) these shares admit both venue
	// tables of the serving benchmark's graph (179 KiB, 17 % of the budget) and
	// run level with unbounded tables (48 against 49 µs per load, 119 without
	// tables); a share that drops the larger table gives back a third of the
	// gain (69–71 µs), and the store's hit rate moves by a point or two either way.
	waistTableShare = 4
	waistTotalShare = 2
	// waistSlotOverhead is charged per filled slot beside the coordinates: the
	// heap copy of the vector's two slice headers.
	waistSlotOverhead = 2 * 24
)

// waistTable holds Φ_suffix(u) for the vertices u of the suffix's source
// type, one slot per vertex in the order of Graph.VerticesOfType. Not
// visPath's ID-span layout: a type worth a table is a small one, and a loader
// that interleaves types spreads it over the whole ID range (the generator's
// 58 venues span 21 417 IDs — 171 KB of empty slots per table, more than the
// vectors); finding a slot is a binary search over a few dozen IDs instead.
type waistTable struct {
	suffix metapath.Path
	ids    []hin.VertexID // Graph.VerticesOfType(suffix.Source()): ascending
	// A nil slot is unfilled; the zero vector is a legitimate Φ. Every writer
	// of a slot stores the same vector — Φ is a function of (path, vertex) —
	// and stored vectors are immutable, so readers need atomicity only.
	slots []atomic.Pointer[sparse.Vector]
	// bytes is what the table is charged for (guarded by sharedCacheState.mu).
	bytes int64
}

// waistSet is the tables of one cache, shared by all its views; its maps are
// guarded by sharedCacheState.mu.
type waistSet struct {
	// ratio, tableShare and totalShare are waistRatio, waistTableShare and
	// waistTotalShare (tests lower the ratio to reach the branch on small
	// graphs; BenchmarkWaist varies the shares).
	ratio                  int
	tableShare, totalShare int64

	// tables maps a suffix's key to its table; a nil entry is a suffix whose
	// table was dropped: it is not retried, and takes no more fills from the
	// misses still holding it.
	tables map[string]*waistTable
	// lines memoizes waistLine per path key; emptied when a table is dropped.
	lines map[string]string

	bytes    atomic.Int64 // of all live tables; part of sharedCacheState.bytes
	finished atomic.Int64 // misses finished by combination
}

// isWaist reports whether the frontier after b hops of p stands at a waist:
// at least one hop done, at least two to go, and the type there at least
// ratio times smaller than both its neighbours on the path.
func isWaist(g *hin.Graph, p metapath.Path, b, ratio int) bool {
	if b < 1 || p.Hops()-b < 2 {
		return false
	}
	n := g.NumVerticesOfType(p.Type(b)) * ratio
	return n > 0 && n <= g.NumVerticesOfType(p.Type(b-1)) && n <= g.NumVerticesOfType(p.Type(b+1))
}

// finishAtWaist completes Φ_p from frontier, the frontier after b hops of p,
// by combination over the table of p's suffix from b, filling the slots it
// lacks. ok is false — and the walk expands on, frontier untouched — when the
// suffix has no table (dropped, or never affordable) or a combined count
// reached 2⁵³, where the sums stop being order-free (Traverser.Combine).
func (m *indexed) finishAtWaist(p metapath.Path, b int, frontier sparse.Vector) (sparse.Vector, bool, error) {
	st := m.lru
	tbl := st.waistTable(p.Key()[b:])
	if tbl == nil {
		return sparse.Vector{}, false, nil
	}
	out, ok, err := m.combine(frontier, tbl.suffix, tbl.get, func(u hin.VertexID, vec sparse.Vector) { st.keepWaist(tbl, u, vec) })
	if ok {
		st.hopsSaved.Add(int64(p.Hops() - b))
		st.waists.finished.Add(1)
	}
	return out, ok, err
}

// slot is tbl's slot of u, a vertex of the suffix's source type.
func (tbl *waistTable) slot(u hin.VertexID) *atomic.Pointer[sparse.Vector] {
	i, _ := slices.BinarySearch(tbl.ids, u)
	return &tbl.slots[i]
}

// get returns Φ_suffix(u) when its slot is filled.
func (tbl *waistTable) get(u hin.VertexID) (sparse.Vector, bool) {
	if vec := tbl.slot(u).Load(); vec != nil {
		return *vec, true
	}
	return sparse.Vector{}, false
}

// waistTable returns the table of the suffix with the given key, creating it
// — every slot empty — when its slot array fits the shares; nil otherwise.
func (st *sharedCacheState) waistTable(suffix string) *waistTable {
	ws := &st.waists
	st.mu.Lock()
	defer st.mu.Unlock()
	tbl, known := ws.tables[suffix]
	if !known {
		p := metapath.FromKey(suffix)
		tbl = &waistTable{suffix: p, ids: st.g.VerticesOfType(p.Source())}
		ws.tables[suffix] = tbl
		if st.growWaistLocked(tbl, 8*int64(len(tbl.ids))) {
			tbl.slots = make([]atomic.Pointer[sparse.Vector], len(tbl.ids))
		} else {
			tbl = nil
		}
	}
	return tbl
}

// keepWaist fills tbl's slot of u with vec, a fill: a traversed vector but
// no load, as the miss it serves is counted by its own flight. A vector the
// table cannot take (it was dropped, now or meanwhile) is only the miss's.
func (st *sharedCacheState) keepWaist(tbl *waistTable, u hin.VertexID, vec sparse.Vector) {
	if cap(vec.Idx) > len(vec.Idx) {
		vec = vec.Clone() // stored at the size of its non-zeros
	}
	slot := tbl.slot(u)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.waists.tables[tbl.suffix.Key()] == tbl && slot.Load() == nil && st.growWaistLocked(tbl, int64(vec.Bytes())+waistSlotOverhead) {
		slot.Store(&vec)
	}
}

// growWaistLocked charges n more bytes to tbl, or drops it — false — when
// that would take it, or all tables together, past their share of the budget.
// The caller holds sharedCacheState.mu.
func (st *sharedCacheState) growWaistLocked(tbl *waistTable, n int64) bool {
	ws := &st.waists
	if tbl.bytes+n > st.maxBytes/ws.tableShare || ws.bytes.Load()+n > st.maxBytes/ws.totalShare {
		ws.tables[tbl.suffix.Key()] = nil
		clear(ws.lines)
		ws.bytes.Add(-tbl.bytes)
		st.bytes.Add(-tbl.bytes)
		tbl.bytes = 0
		return false
	}
	tbl.bytes += n
	ws.bytes.Add(n)
	st.chargeLocked(n)
	return true
}

// waistLine renders the one decision about p that the counters do not show —
// where its misses stop expanding — as the plan line of the query trace and
// wide event: "(0 1 2 1 0): waist=venue@2" (type@hops done), with "(dropped)"
// once the suffix's table outgrew its share and the hops are expanded after
// all. A path without a waist has no line. Every query asks for its paths'
// lines, so they are kept until a table is dropped.
func (st *sharedCacheState) waistLine(p metapath.Path) string {
	ws := &st.waists
	st.mu.Lock()
	defer st.mu.Unlock()
	line, ok := ws.lines[p.Key()]
	if ok {
		return line
	}
	for b := 1; b < p.Hops(); b++ {
		if !isWaist(st.g, p, b, ws.ratio) {
			continue
		}
		sep := ","
		if line == "" {
			line, sep = p.String()+":", " waist="
		}
		line += fmt.Sprintf("%s%s@%d", sep, st.g.Schema().TypeName(p.Type(b)), b)
		if tbl, known := ws.tables[p.Key()[b:]]; known && tbl == nil {
			line += "(dropped)"
		}
	}
	ws.lines[p.Key()] = line
	return line
}
