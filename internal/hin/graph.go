package hin

import (
	"fmt"
	"slices"
)

// VertexID identifies a vertex in a Graph. IDs are dense, starting at 0.
type VertexID int32

// InvalidVertex is returned by lookups for unknown vertices.
const InvalidVertex VertexID = -1

// Graph is an immutable heterogeneous information network. Build one with a
// Builder. Adjacency is stored pair-major: for every ordered type pair (t, u)
// the rows of VerticesOfType(t) toward u lie contiguous, in vertex order, in
// one store (Pair), so a hop over a whole type reads one run; a row-head table
// finds any single row in O(1) (Neighbors), so meta-path traversal never scans
// neighbors of other types.
type Graph struct {
	schema *Schema
	types  []TypeID
	names  []string

	// byType[t] lists the vertices of type t in ascending ID order.
	byType [][]VertexID
	// byName[t] maps a vertex name to its ID, per type. Names are unique
	// within a type (the builder enforces this).
	byName []map[string]VertexID

	// The neighbors of vertex v with type t occupy nbr[h.lo:h.hi] with
	// h = head[int(v)*nt+int(t)]; mult holds the parallel edge multiplicities.
	// nt is the schema's type count, kept beside the heads so a row lookup
	// does not chase the schema pointer. pairs[t*nt+u] is the run of nbr and
	// mult holding every row from type t toward u; the runs tile the store.
	nt    int
	head  []rowHead
	nbr   []VertexID
	mult  []int32
	pairs []Pair

	numEdges int64 // total directed edge count, multiplicities included
}

// rowHead bounds one adjacency row within nbr and mult: 8 bytes per (vertex,
// type), and Build refuses a store past the 2³²−1 entries it can address.
type rowHead struct{ lo, hi uint32 }

// Pair is the adjacency from one vertex type t toward another, u: the rows of
// VerticesOfType(t), in that order, as one contiguous run. The slices alias
// the graph's storage and must not be modified.
type Pair struct {
	// Off[i]:Off[i+1] bounds the row of the i-th vertex of type t within Nbr
	// and Mult; len(Off) is the type's vertex count plus one.
	Off  []uint32
	Nbr  []VertexID
	Mult []int32
	// Row[j] is the rank i of the row that entry j belongs to, kept only for
	// a pair of short rows (mean row length under flatRowMean): what a
	// gather walking the entries in storage order needs. nil otherwise.
	Row []int32
	// Unit reports that every multiplicity in Mult is 1.
	Unit bool
}

// flatRowMean is the mean row length under which a pair keeps Row, at 4 bytes
// per entry, and with that the crossover between the pull kernel's two bodies
// (metapath.pullRows). Its evidence is metapath's BenchmarkExpand, pull=flat
// against pull=rows in BENCH_kernel.json: on the generator graph flat wins
// 2.4–3.9× at 1.0, 2.5 and 5.0 entries per row and loses 1.5–3.3× at 10.5, 55
// and 291; on uniform synthetic rows it wins up to 8 and loses from 16.
const flatRowMean = 8

// Schema returns the graph's schema.
func (g *Graph) Schema() *Schema { return g.schema }

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return len(g.types) }

// NumEdges reports the total number of directed edges, counting
// multiplicities.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// Type returns the type of vertex v.
func (g *Graph) Type(v VertexID) TypeID { return g.types[v] }

// Name returns the display name of vertex v.
func (g *Graph) Name(v VertexID) string { return g.names[v] }

// Valid reports whether v is a vertex of this graph.
func (g *Graph) Valid(v VertexID) bool { return v >= 0 && int(v) < len(g.types) }

// VerticesOfType returns all vertices of type t in ascending ID order.
// The returned slice is shared; callers must not modify it.
func (g *Graph) VerticesOfType(t TypeID) []VertexID { return g.byType[t] }

// NumVerticesOfType reports how many vertices have type t.
func (g *Graph) NumVerticesOfType(t TypeID) int { return len(g.byType[t]) }

// TypeIDSpan returns the smallest and largest vertex IDs of type t; ok is
// false when the graph has no vertex of that type. Expansion kernels size
// their dense scratch to hi-lo+1 (the type's ID span) rather than the whole
// vertex space: builders assign IDs in insertion order, so loaders that add
// vertices type by type keep the span close to the type's count.
func (g *Graph) TypeIDSpan(t TypeID) (lo, hi VertexID, ok bool) {
	if int(t) >= len(g.byType) || len(g.byType[t]) == 0 {
		return InvalidVertex, InvalidVertex, false
	}
	vs := g.byType[t]
	return vs[0], vs[len(vs)-1], true
}

// VertexByName resolves a (type, name) pair to a vertex ID. The second
// result is false if no such vertex exists.
func (g *Graph) VertexByName(t TypeID, name string) (VertexID, bool) {
	if int(t) >= len(g.byName) {
		return InvalidVertex, false
	}
	v, ok := g.byName[t][name]
	if !ok {
		return InvalidVertex, false
	}
	return v, true
}

// Neighbors returns the distinct neighbors of v having type t, in ascending
// ID order, along with the multiplicity of each connecting edge. The
// returned slices alias the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(v VertexID, t TypeID) (nbrs []VertexID, mults []int32) {
	h := g.head[int(v)*g.nt+int(t)]
	return g.nbr[h.lo:h.hi], g.mult[h.lo:h.hi]
}

// Pair returns the adjacency from type t toward type u: every row
// Neighbors(v, u) of a vertex v of type t, in VerticesOfType(t) order.
func (g *Graph) Pair(t, u TypeID) Pair { return g.pairs[int(t)*g.nt+int(u)] }

// EdgesBetween reports how many (vertex of type t, distinct neighbor of type
// u) pairs the graph holds: the adjacency entries a hop from all of t to u
// reads. Edges are symmetric, so EdgesBetween(t, u) == EdgesBetween(u, t).
func (g *Graph) EdgesBetween(t, u TypeID) int64 {
	return int64(len(g.Pair(t, u).Nbr))
}

// Degree reports the number of distinct neighbors of v having type t.
func (g *Graph) Degree(v VertexID, t TypeID) int {
	h := g.head[int(v)*g.nt+int(t)]
	return int(h.hi - h.lo)
}

// EdgeMultiplicity reports the multiplicity of the edge from v to u, or 0 if
// no edge exists.
func (g *Graph) EdgeMultiplicity(v, u VertexID) int32 {
	nbrs, mults := g.Neighbors(v, g.types[u])
	if i, ok := slices.BinarySearch(nbrs, u); ok {
		return mults[i]
	}
	return 0
}

// Validate performs an integrity check over the whole graph: the pairs' runs
// tile the store and every row head lies where its pair's offsets put it, Row
// is kept for the short-row pairs and ranks their entries, Unit is true of the
// all-ones pairs, neighbor lists are sorted and unique, every stored edge
// respects the schema, and every edge has a symmetric counterpart. It is
// intended for tests and loaders, not hot paths.
func (g *Graph) Validate() error {
	nt := g.schema.NumTypes()
	if g.nt != nt || len(g.head) != len(g.types)*nt || len(g.pairs) != nt*nt || len(g.mult) != len(g.nbr) {
		return fmt.Errorf("hin: %d row heads, %d pairs, %d/%d entries for %d vertices of %d types", len(g.head), len(g.pairs), len(g.nbr), len(g.mult), len(g.types), nt)
	}
	base := 0
	for k, p := range g.pairs {
		t, u := k/nt, k%nt
		rows, n := g.byType[t], len(p.Nbr)
		short := n > 0 && n < flatRowMean*len(rows)
		if len(p.Off) != len(rows)+1 || len(p.Mult) != n || base+n > len(g.nbr) ||
			(n > 0 && (&p.Nbr[0] != &g.nbr[base] || &p.Mult[0] != &g.mult[base])) ||
			(p.Row != nil) != short || (short && len(p.Row) != n) {
			return fmt.Errorf("hin: pair %d->%d is not %d entries at %d with %d offsets and %d row ranks for %d rows", t, u, n, base, len(p.Off), len(p.Row), len(rows))
		}
		unit, ranked, at := true, true, uint32(0)
		for i, v := range rows {
			h, hi := g.head[int(v)*nt+u], p.Off[i+1]
			if p.Off[i] != at || hi < at || int(hi) > n || int(h.lo) != base+int(at) || int(h.hi) != base+int(hi) {
				return fmt.Errorf("hin: row %d of pair %d->%d at %d: offsets %d:%d, head %d:%d", i, t, u, base, p.Off[i], hi, h.lo, h.hi)
			}
			for ; at < hi; at++ {
				unit, ranked = unit && p.Mult[at] == 1, ranked && (!short || p.Row[at] == int32(i))
			}
		}
		if int(at) != n || p.Unit != unit || !ranked {
			return fmt.Errorf("hin: pair %d->%d: rows cover %d of %d entries, Unit = %v, row ranks right = %v", t, u, at, n, p.Unit, ranked)
		}
		base += n
	}
	if base != len(g.nbr) {
		return fmt.Errorf("hin: pair runs cover %d of %d adjacency entries", base, len(g.nbr))
	}
	for v := 0; v < len(g.types); v++ {
		for t := 0; t < nt; t++ {
			nbrs, mults := g.Neighbors(VertexID(v), TypeID(t))
			for i, u := range nbrs {
				if !g.Valid(u) {
					return fmt.Errorf("hin: vertex %d has out-of-range neighbor %d", v, u)
				}
				if g.types[u] != TypeID(t) {
					return fmt.Errorf("hin: neighbor %d of vertex %d stored under type %s but has type %s",
						u, v, g.schema.TypeName(TypeID(t)), g.schema.TypeName(g.types[u]))
				}
				if i > 0 && nbrs[i-1] >= u {
					return fmt.Errorf("hin: neighbor list of vertex %d type %s not sorted/unique", v, g.schema.TypeName(TypeID(t)))
				}
				if mults[i] <= 0 {
					return fmt.Errorf("hin: non-positive multiplicity on edge %d-%d", v, u)
				}
				if !g.schema.EdgeAllowed(g.types[v], TypeID(t)) {
					return fmt.Errorf("hin: edge %d-%d violates schema (%s->%s not allowed)",
						v, u, g.schema.TypeName(g.types[v]), g.schema.TypeName(TypeID(t)))
				}
				if g.EdgeMultiplicity(u, VertexID(v)) != mults[i] {
					return fmt.Errorf("hin: edge %d-%d lacks symmetric counterpart with equal multiplicity", v, u)
				}
			}
		}
	}
	return nil
}

// Stats summarizes a graph for display.
type Stats struct {
	Vertices      int
	EdgesDirected int64
	PerType       map[string]int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Vertices:      g.NumVertices(),
		EdgesDirected: g.numEdges,
		PerType:       make(map[string]int, g.schema.NumTypes()),
	}
	for t := 0; t < g.schema.NumTypes(); t++ {
		st.PerType[g.schema.TypeName(TypeID(t))] = len(g.byType[t])
	}
	return st
}
