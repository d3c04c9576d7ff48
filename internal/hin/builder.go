package hin

import (
	"fmt"
	"math"
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
	// amortized; Build lays the rows out sorted.
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
// usable afterwards (Build copies), though reusing it is uncommon. It panics
// on a network of more than 2³²−1 adjacency entries, which the graph's 32-bit
// row heads could not address.
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
		head:   make([]rowHead, n*nt),
		pairs:  make([]Pair, nt*nt),
	}
	for t := 0; t < nt; t++ {
		g.byName[t] = make(map[string]VertexID, len(b.byName[t]))
		for name, v := range b.byName[t] {
			g.byName[t][name] = v
		}
	}
	// IDs are assigned in increasing order, so every byType list ascends.
	for v := 0; v < n; v++ {
		g.byType[b.types[v]] = append(g.byType[b.types[v]], VertexID(v))
	}

	// First pass: count each row's entries into its head's hi.
	total := 0
	for v := 0; v < n; v++ {
		for u := range b.edges[v] {
			g.head[v*nt+int(b.types[u])].hi++
		}
		total += len(b.edges[v])
	}
	if uint64(total) > math.MaxUint32 {
		panic(fmt.Sprintf("hin: %d adjacency entries, a Graph addresses at most %d", total, uint32(math.MaxUint32)))
	}
	g.nbr = make([]VertexID, total)
	g.mult = make([]int32, total)

	// Second pass: lay the rows out pair by pair, each pair's in vertex
	// order. A head's hi becomes the fill cursor, starting at lo.
	off := make([]uint32, nt*(n+nt))
	var at uint32
	for k := range g.pairs {
		p, rows, base := &g.pairs[k], g.byType[k/nt], at
		p.Off, off = off[:len(rows)+1:len(rows)+1], off[len(rows)+1:]
		for i, v := range rows {
			h := &g.head[int(v)*nt+k%nt]
			p.Off[i] = at - base
			h.lo, h.hi, at = at, at, at+h.hi
		}
		p.Off[len(rows)] = at - base
		p.Nbr, p.Mult, p.Unit = g.nbr[base:at:at], g.mult[base:at:at], true
		if at > base && int(at-base) < flatRowMean*len(rows) {
			p.Row = make([]int32, at-base)
			for i := range rows {
				for j := p.Off[i]; j < p.Off[i+1]; j++ {
					p.Row[j] = int32(i)
				}
			}
		}
	}

	// Third pass: edges are stored in both directions with one multiplicity,
	// so sweeping the sources w in ascending order and writing each edge
	// (w, u) as the entry w of u's row fills every row already ascending.
	for w := 0; w < n; w++ {
		tw := int(b.types[w])
		for u, m := range b.edges[w] {
			h := &g.head[int(u)*nt+tw]
			g.nbr[h.hi], g.mult[h.hi] = VertexID(w), m
			h.hi++
			g.numEdges += int64(m)
			if m != 1 {
				g.pairs[int(b.types[u])*nt+tw].Unit = false
			}
		}
	}
	return g
}
