package core

import (
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// pathIndex stores pre-materialized Φ vectors for a set of meta-paths in an
// arena-backed layout: every indexed vector's coordinates live in two shared
// backing arrays (idx/val), and each path owns a dense entry table indexed
// by (vertex − span base) of its source type. A probe is therefore one map
// hash to find the path's table (hoisted out of per-vertex loops by the
// materializer) plus one array load — no per-probe key building, no second
// hash, and vectors for consecutive vertices of one path sit adjacent in
// memory.
//
// The index is built single-goroutine and immutable afterwards; views share
// it read-only. Returned vectors alias the arena and must not be modified
// (the same contract the CSR adjacency slices carry).
type pathIndex struct {
	g      *hin.Graph
	tables map[string]*pathTable
	idx    []int32
	val    []float64
	bytes  int64
}

// vecSpan locates one vector's payload inside the arena. n < 0 marks an
// absent entry.
type vecSpan struct {
	off int64
	n   int32
}

const spanAbsent = int32(-1)

// vecSpanBytes is the in-memory size of one entry-table slot.
const vecSpanBytes = 12 // off int64 + n int32 (+ padding amortized away by packing)

// pathTable is one path's vertex → arena-span table, dense over the source
// type's vertex-ID span.
type pathTable struct {
	path    metapath.Path
	lo      int32 // span base: smallest vertex ID the table covers
	entries []vecSpan
	count   int // number of present entries
}

func newPathIndex(g *hin.Graph) *pathIndex {
	return &pathIndex{g: g, tables: make(map[string]*pathTable)}
}

// table resolves the per-path entry table with a single map probe (nil if
// the path was never indexed). Callers probing many vertices of one path
// hoist this lookup out of their loop.
func (ix *pathIndex) table(p metapath.Path) *pathTable {
	return ix.tables[p.Key()]
}

// probe returns the indexed vector for v in t, aliasing the arena. It is
// hash-free: a bounds check and an array load.
func (ix *pathIndex) probe(t *pathTable, v hin.VertexID) (sparse.Vector, bool) {
	if t == nil {
		return sparse.Vector{}, false
	}
	i := int64(v) - int64(t.lo)
	if i < 0 || i >= int64(len(t.entries)) {
		return sparse.Vector{}, false
	}
	e := t.entries[i]
	if e.n < 0 {
		return sparse.Vector{}, false
	}
	return sparse.Vector{
		Idx: ix.idx[e.off : e.off+int64(e.n) : e.off+int64(e.n)],
		Val: ix.val[e.off : e.off+int64(e.n) : e.off+int64(e.n)],
	}, true
}

// put stores Φ_p(v) for a vertex v of p's source type — buildIndex hands
// vertices out by type, LoadIndex checks it — copying the payload into the
// arena. A path's table is sized once, to that type's ID span. Re-putting a
// vertex overwrites in place when the new payload fits; otherwise the new
// payload is appended and the old span goes dead (dead bytes stay counted —
// IndexBytes reports what the arena actually holds).
func (ix *pathIndex) put(p metapath.Path, v hin.VertexID, vec sparse.Vector) {
	key := p.Key()
	t := ix.tables[key]
	if t == nil {
		lo, hi, _ := ix.g.TypeIDSpan(p.Source()) // the type has v
		span := int(hi) - int(lo) + 1
		t = &pathTable{path: p, lo: int32(lo), entries: make([]vecSpan, span)}
		for i := range t.entries {
			t.entries[i].n = spanAbsent
		}
		ix.tables[key] = t
		ix.bytes += int64(span)*vecSpanBytes + int64(len(key))
	}
	e := &t.entries[v-hin.VertexID(t.lo)]
	n := int32(vec.NNZ())
	if e.n >= 0 && n <= e.n {
		copy(ix.idx[e.off:], vec.Idx)
		copy(ix.val[e.off:], vec.Val)
		e.n = n
		return
	}
	if e.n < 0 {
		t.count++
	}
	e.off = int64(len(ix.idx))
	e.n = n
	ix.idx = append(ix.idx, vec.Idx...)
	ix.val = append(ix.val, vec.Val...)
	ix.bytes += int64(n) * 12 // 4 B index + 8 B value per coordinate
}

// numPaths reports how many paths have at least one indexed vector.
func (ix *pathIndex) numPaths() int { return len(ix.tables) }

// forEachPath iterates the per-path tables (map order).
func (ix *pathIndex) forEachPath(fn func(key string, t *pathTable)) {
	for key, t := range ix.tables {
		fn(key, t)
	}
}

// forEach iterates a table's present vectors in ascending vertex order.
func (t *pathTable) forEach(ix *pathIndex, fn func(v hin.VertexID, vec sparse.Vector)) {
	for i := range t.entries {
		e := t.entries[i]
		if e.n < 0 {
			continue
		}
		fn(hin.VertexID(int64(t.lo)+int64(i)), sparse.Vector{
			Idx: ix.idx[e.off : e.off+int64(e.n) : e.off+int64(e.n)],
			Val: ix.val[e.off : e.off+int64(e.n) : e.off+int64(e.n)],
		})
	}
}
