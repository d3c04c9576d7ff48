package hin

import (
	"fmt"
	"sort"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is not usable; construct with NewBuilder.
//
// Edges are undirected by the paper's convention (Definition 1 treats an
// undirected edge as two symmetric directed edges): AddEdge stores both
// directions. Adding the same edge repeatedly increases its multiplicity,
// which is how a bibliographic builder records, for example, two authors
// sharing several papers at the paper level (each paper contributes its own
// paper-author edges, so multiplicities above 1 typically arise in
// projected or aggregated networks).
type Builder struct {
	schema *Schema
	types  []TypeID
	names  []string
	byName []map[string]VertexID
	// edges[v] maps neighbor -> multiplicity. A map keeps AddEdge O(1)
	// amortized; Build converts to sorted CSR.
	edges []map[VertexID]int32
}

// NewBuilder creates a builder for a network with the given schema.
func NewBuilder(schema *Schema) *Builder {
	b := &Builder{
		schema: schema,
		byName: make([]map[string]VertexID, schema.NumTypes()),
	}
	for i := range b.byName {
		b.byName[i] = make(map[string]VertexID)
	}
	return b
}

// Schema returns the builder's schema.
func (b *Builder) Schema() *Schema { return b.schema }

// NumVertices reports the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.types) }

// AddVertex adds a vertex of type t with the given display name and returns
// its ID. Names must be unique within a type; adding a duplicate returns the
// existing vertex (upsert semantics), which makes incremental loaders simple.
func (b *Builder) AddVertex(t TypeID, name string) (VertexID, error) {
	if int(t) >= b.schema.NumTypes() {
		return InvalidVertex, fmt.Errorf("hin: unknown type id %d", t)
	}
	if v, ok := b.byName[t][name]; ok {
		return v, nil
	}
	v := VertexID(len(b.types))
	b.types = append(b.types, t)
	b.names = append(b.names, name)
	b.edges = append(b.edges, nil)
	b.byName[t][name] = v
	return v, nil
}

// MustAddVertex is AddVertex panicking on error, for tests and examples.
func (b *Builder) MustAddVertex(t TypeID, name string) VertexID {
	v, err := b.AddVertex(t, name)
	if err != nil {
		panic(err)
	}
	return v
}

// Vertex resolves a (type, name) pair among the vertices added so far.
func (b *Builder) Vertex(t TypeID, name string) (VertexID, bool) {
	if int(t) >= len(b.byName) {
		return InvalidVertex, false
	}
	v, ok := b.byName[t][name]
	if !ok {
		return InvalidVertex, false
	}
	return v, true
}

// AddEdge records an undirected edge between v and u, increasing its
// multiplicity by one if it already exists. The edge must be allowed by the
// schema in both directions.
func (b *Builder) AddEdge(v, u VertexID) error { return b.AddEdgeMult(v, u, 1) }

// AddEdgeMult records an undirected edge with an explicit multiplicity
// increment (useful when loading aggregated networks).
func (b *Builder) AddEdgeMult(v, u VertexID, mult int32) error {
	if int(v) >= len(b.types) || v < 0 || int(u) >= len(b.types) || u < 0 {
		return fmt.Errorf("hin: edge endpoints %d-%d out of range", v, u)
	}
	if mult <= 0 {
		return fmt.Errorf("hin: edge multiplicity must be positive, got %d", mult)
	}
	tv, tu := b.types[v], b.types[u]
	if !b.schema.EdgeAllowed(tv, tu) || !b.schema.EdgeAllowed(tu, tv) {
		return fmt.Errorf("hin: schema forbids edge %s-%s",
			b.schema.TypeName(tv), b.schema.TypeName(tu))
	}
	b.bump(v, u, mult)
	if v != u {
		b.bump(u, v, mult)
	}
	return nil
}

// MustAddEdge is AddEdge panicking on error, for tests and examples.
func (b *Builder) MustAddEdge(v, u VertexID) {
	if err := b.AddEdge(v, u); err != nil {
		panic(err)
	}
}

func (b *Builder) bump(v, u VertexID, mult int32) {
	m := b.edges[v]
	if m == nil {
		m = make(map[VertexID]int32, 4)
		b.edges[v] = m
	}
	m[u] += mult
}

// Build finalizes the builder into an immutable Graph. The builder remains
// usable afterwards (Build copies), though reusing it is uncommon.
func (b *Builder) Build() *Graph {
	nt := b.schema.NumTypes()
	n := len(b.types)
	g := &Graph{
		schema: b.schema.Clone(),
		types:  append([]TypeID(nil), b.types...),
		names:  append([]string(nil), b.names...),
		byType: make([][]VertexID, nt),
		byName: make([]map[string]VertexID, nt),
		nt:     nt,
		off:    make([]int64, n*nt+1),

		typeEdges: make([]int64, nt*nt),
	}
	for t := 0; t < nt; t++ {
		g.byName[t] = make(map[string]VertexID, len(b.byName[t]))
		for name, v := range b.byName[t] {
			g.byName[t][name] = v
		}
	}
	for v := 0; v < n; v++ {
		g.byType[b.types[v]] = append(g.byType[b.types[v]], VertexID(v))
	}
	// byType slices are already ascending because vertex IDs are assigned in
	// increasing order, but sort defensively in case of future mutation paths.
	for t := 0; t < nt; t++ {
		vs := g.byType[t]
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}

	// First pass: count per-(vertex,type) neighbors to size the CSR arrays.
	counts := make([]int64, n*nt)
	var total int64
	for v := 0; v < n; v++ {
		for u := range b.edges[v] {
			counts[v*nt+int(b.types[u])]++
			g.typeEdges[int(b.types[v])*nt+int(b.types[u])]++
			total++
		}
	}
	g.nbr = make([]VertexID, total)
	g.mult = make([]int32, total)
	var running int64
	for k := 0; k < n*nt; k++ {
		g.off[k] = running
		running += counts[k]
	}
	g.off[n*nt] = running

	// Second pass: fill and sort each block.
	fill := make([]int64, n*nt)
	copy(fill, g.off[:n*nt])
	for v := 0; v < n; v++ {
		for u, m := range b.edges[v] {
			k := v*nt + int(b.types[u])
			g.nbr[fill[k]] = u
			g.mult[fill[k]] = m
			fill[k]++
			g.numEdges += int64(m)
		}
	}
	for k := 0; k < n*nt; k++ {
		lo, hi := g.off[k], g.off[k+1]
		block := blockSorter{nbr: g.nbr[lo:hi], mult: g.mult[lo:hi]}
		sort.Sort(block)
	}
	return g
}

type blockSorter struct {
	nbr  []VertexID
	mult []int32
}

func (s blockSorter) Len() int           { return len(s.nbr) }
func (s blockSorter) Less(i, j int) bool { return s.nbr[i] < s.nbr[j] }
func (s blockSorter) Swap(i, j int) {
	s.nbr[i], s.nbr[j] = s.nbr[j], s.nbr[i]
	s.mult[i], s.mult[j] = s.mult[j], s.mult[i]
}
