package hin

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex in a Graph. IDs are dense, starting at 0.
type VertexID int32

// InvalidVertex is returned by lookups for unknown vertices.
const InvalidVertex VertexID = -1

// Graph is an immutable heterogeneous information network. Build one with a
// Builder. Adjacency is stored per (vertex, neighbor type): Neighbors(v, t)
// returns the distinct neighbors of v with type t together with edge
// multiplicities, so meta-path traversal never scans neighbors of other
// types.
type Graph struct {
	schema *Schema
	types  []TypeID
	names  []string

	// byType[t] lists the vertices of type t in ascending ID order.
	byType [][]VertexID
	// byName[t] maps a vertex name to its ID, per type. Names are unique
	// within a type (the builder enforces this).
	byName []map[string]VertexID

	// CSR blocks: the neighbors of vertex v with type t occupy
	// nbr[off[k]:off[k+1]] with k = int(v)*nt + int(t); mult holds the
	// parallel edge multiplicities. nt is the schema's type count, kept
	// beside the offsets so a row lookup does not chase the schema pointer.
	nt   int
	off  []int64
	nbr  []VertexID
	mult []int32

	numEdges int64 // total directed edge count, multiplicities included
	// typeEdges[t*nt+u] counts the adjacency entries from vertices of
	// type t to neighbors of type u (distinct pairs, multiplicities not
	// included); symmetric in t and u.
	typeEdges []int64
}

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
	k := int64(v)*int64(g.nt) + int64(t)
	lo, hi := g.off[k], g.off[k+1]
	return g.nbr[lo:hi], g.mult[lo:hi]
}

// EdgesBetween reports how many (vertex of type t, distinct neighbor of type
// u) pairs the graph holds: the adjacency entries a hop from all of t to u
// reads. Edges are symmetric, so EdgesBetween(t, u) == EdgesBetween(u, t).
func (g *Graph) EdgesBetween(t, u TypeID) int64 {
	return g.typeEdges[int(t)*g.nt+int(u)]
}

// Degree reports the number of distinct neighbors of v having type t.
func (g *Graph) Degree(v VertexID, t TypeID) int {
	k := int64(v)*int64(g.nt) + int64(t)
	return int(g.off[k+1] - g.off[k])
}

// TotalDegree reports the number of distinct neighbors of v of any type.
func (g *Graph) TotalDegree(v VertexID) int {
	n := g.schema.NumTypes()
	k := int64(v) * int64(n)
	return int(g.off[k+int64(n)] - g.off[k])
}

// EdgeMultiplicity reports the multiplicity of the edge from v to u, or 0 if
// no edge exists.
func (g *Graph) EdgeMultiplicity(v, u VertexID) int32 {
	nbrs, mults := g.Neighbors(v, g.types[u])
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= u })
	if i < len(nbrs) && nbrs[i] == u {
		return mults[i]
	}
	return 0
}

// Validate performs an integrity check over the whole graph: offsets are
// monotone, neighbor lists are sorted and unique, every stored edge respects
// the schema, and every edge has a symmetric counterpart. It is intended for
// tests and loaders, not hot paths.
func (g *Graph) Validate() error {
	nt := g.schema.NumTypes()
	if len(g.off) != len(g.types)*nt+1 {
		return fmt.Errorf("hin: offset table has %d entries, want %d", len(g.off), len(g.types)*nt+1)
	}
	for k := 0; k+1 < len(g.off); k++ {
		if g.off[k] > g.off[k+1] {
			return fmt.Errorf("hin: offsets not monotone at block %d", k)
		}
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
