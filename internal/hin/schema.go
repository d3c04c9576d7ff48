// Package hin implements the heterogeneous information network substrate:
// a directed multigraph with typed vertices and typed edges, per Definition 1
// of Kuck et al. (EDBT 2015). Vertices carry a type drawn from a small,
// closed schema and a display name; adjacency is stored in a compressed
// per-(vertex, neighbor-type) layout so that meta-path traversal touches
// only neighbors of the requested type.
package hin

import (
	"fmt"
	"sort"
)

// TypeID identifies a vertex type within a Schema. Schemas are small
// (a bibliographic network has 4 types), so a byte suffices.
type TypeID uint8

// InvalidType is returned by lookups for unknown type names.
const InvalidType TypeID = 0xFF

// MaxTypes is the maximum number of vertex types a schema may declare.
const MaxTypes = 64

// Schema describes the closed set of vertex types of a network and which
// ordered pairs of types may be connected by an edge. In a bibliographic
// network the types are paper, venue, author and term, with edges
// paper-venue, paper-author and paper-term.
type Schema struct {
	names   []string
	ids     map[string]TypeID
	allowed []bool // allowed[src*len(names)+dst]
}

// NewSchema creates a schema with the given vertex type names.
// Type names must be unique and non-empty.
func NewSchema(typeNames ...string) (*Schema, error) {
	if len(typeNames) == 0 {
		return nil, fmt.Errorf("hin: schema needs at least one vertex type")
	}
	if len(typeNames) > MaxTypes {
		return nil, fmt.Errorf("hin: too many vertex types (%d > %d)", len(typeNames), MaxTypes)
	}
	s := &Schema{
		names:   make([]string, len(typeNames)),
		ids:     make(map[string]TypeID, len(typeNames)),
		allowed: make([]bool, len(typeNames)*len(typeNames)),
	}
	for i, n := range typeNames {
		if n == "" {
			return nil, fmt.Errorf("hin: empty vertex type name at position %d", i)
		}
		if _, dup := s.ids[n]; dup {
			return nil, fmt.Errorf("hin: duplicate vertex type %q", n)
		}
		s.names[i] = n
		s.ids[n] = TypeID(i)
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically-known schemas in examples and tests.
func MustSchema(typeNames ...string) *Schema {
	s, err := NewSchema(typeNames...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumTypes reports the number of vertex types in the schema.
func (s *Schema) NumTypes() int { return len(s.names) }

// TypeName returns the name of type t. It panics if t is out of range.
func (s *Schema) TypeName(t TypeID) string { return s.names[t] }

// TypeByName resolves a type name to its TypeID. The second result is
// false if the name is not part of the schema.
func (s *Schema) TypeByName(name string) (TypeID, bool) {
	t, ok := s.ids[name]
	if !ok {
		return InvalidType, false
	}
	return t, true
}

// TypeNames returns the type names in declaration order.
func (s *Schema) TypeNames() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// AllowEdge declares that edges from type src to type dst are legal.
// Undirected relations should be declared in both directions; the
// convenience AllowLink does so.
func (s *Schema) AllowEdge(src, dst TypeID) {
	s.allowed[int(src)*len(s.names)+int(dst)] = true
}

// AllowLink declares a symmetric (undirected) relation between types a and b.
func (s *Schema) AllowLink(a, b TypeID) {
	s.AllowEdge(a, b)
	s.AllowEdge(b, a)
}

// EdgeAllowed reports whether edges from type src to type dst are legal.
func (s *Schema) EdgeAllowed(src, dst TypeID) bool {
	return s.allowed[int(src)*len(s.names)+int(dst)]
}

// AllowedFrom returns all destination types reachable from src, in order.
func (s *Schema) AllowedFrom(src TypeID) []TypeID {
	var out []TypeID
	for d := 0; d < len(s.names); d++ {
		if s.EdgeAllowed(src, TypeID(d)) {
			out = append(out, TypeID(d))
		}
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		names:   append([]string(nil), s.names...),
		ids:     make(map[string]TypeID, len(s.ids)),
		allowed: append([]bool(nil), s.allowed...),
	}
	for k, v := range s.ids {
		c.ids[k] = v
	}
	return c
}

// String renders the schema compactly, e.g.
// "schema{author, paper, term, venue; paper-author, paper-term, paper-venue}".
func (s *Schema) String() string {
	names := append([]string(nil), s.names...)
	sort.Strings(names)
	out := "schema{"
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	out += ";"
	first := true
	for src := 0; src < len(s.names); src++ {
		for dst := 0; dst < len(s.names); dst++ {
			if s.allowed[src*len(s.names)+dst] {
				if !first {
					out += ","
				}
				out += fmt.Sprintf(" %s->%s", s.names[src], s.names[dst])
				first = false
			}
		}
	}
	return out + "}"
}
