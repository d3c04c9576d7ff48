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
// use by one plain traversal and never evicted one by one: the store holds few
// entries on a small budget and would churn exactly the entries every miss
// needs. A table is one entry of the store, worth its fills' walks, charged
// what it holds and evicted whole like any other; its next miss builds it
// again.

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
	// tables take 0.4–1.3 MiB, more than a small store could keep beside its
	// vectors.
	waistRatio = 16
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
	rank
	key    ckey
	suffix metapath.Path
	ids    []hin.VertexID // Graph.VerticesOfType(suffix.Source()): ascending
	// A nil slot is unfilled; the zero vector is a legitimate Φ. Every writer
	// of a slot stores the same vector — Φ is a function of (path, vertex) —
	// and stored vectors are immutable, so readers need atomicity only.
	slots []atomic.Pointer[sparse.Vector]
	// size is what the table is charged: its slots and the vectors filled
	// (guarded by sharedCacheState.mu).
	size int64
}

func (tbl *waistTable) ckey() ckey   { return tbl.key }
func (tbl *waistTable) bytes() int64 { return tbl.size }

// waistSet is what one store knows of its waists beside its tables.
type waistSet struct {
	// ratio is waistRatio (tests lower it to reach the branch on small graphs).
	ratio int
	// lines memoizes waistLine per path key (guarded by sharedCacheState.mu).
	lines    map[string]string
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
// suffix has no table (its slots alone exceed the budget) or a combined count
// reached 2⁵³, where the sums stop being order-free (Traverser.Combine).
func (m *Materializer) finishAtWaist(p metapath.Path, b int, frontier sparse.Vector) (sparse.Vector, bool, error) {
	st := m.lru
	tbl := st.waistTable(p.Key()[b:])
	if tbl == nil {
		return sparse.Vector{}, false, nil
	}
	out, ok, err := m.combine(frontier, tbl.suffix, tbl.get, func(u hin.VertexID, vec sparse.Vector, work int64) { st.keepWaist(tbl, u, vec, work) })
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

// waistTable returns the table of the suffix with the given key, used, or
// creates it — every slot empty — unless its slots alone exceed the budget
// (nil).
func (st *sharedCacheState) waistTable(suffix string) *waistTable {
	key := ckey{path: suffix, v: waistOf}
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[key]; ok {
		return st.touchLocked(el).(*waistTable)
	}
	p := metapath.FromKey(suffix)
	tbl := &waistTable{key: key, suffix: p, ids: st.g.VerticesOfType(p.Source())}
	if tbl.size = 8 * int64(len(tbl.ids)); tbl.size > st.maxBytes {
		return nil
	}
	tbl.slots = make([]atomic.Pointer[sparse.Vector], len(tbl.ids))
	st.chargeLocked(tbl.size)
	st.pushLocked(tbl)
	return tbl
}

// keepWaist fills tbl's slot of u with vec, a fill that read work: a
// traversed vector but no load, as the miss it serves is counted by its own
// flight. The table grows by the vector, is worth work more and is ranked
// again. A vector the table cannot take — it was evicted, or would outgrow the
// budget — is only the miss's.
func (st *sharedCacheState) keepWaist(tbl *waistTable, u hin.VertexID, vec sparse.Vector, work int64) {
	if cap(vec.Idx) > len(vec.Idx) {
		vec = vec.Clone() // stored at the size of its non-zeros
	}
	slot, n := tbl.slot(u), int64(vec.Bytes())+waistSlotOverhead
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[tbl.key]; ok && el.Value == tbl && slot.Load() == nil && tbl.size+n <= st.maxBytes {
		tbl.size += n
		st.rerankLocked(el, tbl.work+work, n)
		slot.Store(&vec)
	}
}

// waistLine renders the one decision about p that the counters do not show —
// where its misses stop expanding — as the plan line of the query trace and
// wide event: "(0 1 2 1 0): waist=venue@2" (type@hops done), with "(dropped)"
// where the suffix's slots alone exceed the budget and the hops are expanded
// after all. A path without a waist has no line. Every query asks for its
// paths' lines, so they are kept.
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
		if 8*int64(st.g.NumVerticesOfType(p.Type(b))) > st.maxBytes {
			line += "(dropped)"
		}
	}
	ws.lines[p.Key()] = line
	return line
}
