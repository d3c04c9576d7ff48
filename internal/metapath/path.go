// Package metapath implements meta-paths over heterogeneous information
// networks (Definitions 2-7 of Kuck et al., EDBT 2015): the path type with
// reversal and concatenation operators, schema validation, path-instance
// counting π_P, neighborhoods N_P and neighbor vectors Φ_P.
package metapath

import (
	"fmt"
	"strings"

	"netout/internal/hin"
)

// Path is an ordered sequence of vertex types, P = (T0 T1 ... Tl).
// The zero Path is invalid; construct with New, FromNames or ParseDotted.
// Paths are immutable: operators return new values.
type Path struct {
	types []hin.TypeID
	// key is the canonical byte encoding of types (one byte per type),
	// precomputed at construction so Key() — the cache/index map key — is a
	// field load instead of a per-lookup allocation.
	key string
}

// mk builds a Path over types, precomputing its canonical key. The slice is
// adopted, not copied — callers must own it exclusively.
func mk(types []hin.TypeID) Path {
	b := make([]byte, len(types))
	for i, t := range types {
		b[i] = byte(t)
	}
	return Path{types: types, key: string(b)}
}

// New builds a meta-path from type IDs. At least one type is required.
func New(types ...hin.TypeID) (Path, error) {
	if len(types) == 0 {
		return Path{}, fmt.Errorf("metapath: a meta-path needs at least one vertex type")
	}
	return mk(append([]hin.TypeID(nil), types...)), nil
}

// MustNew is New panicking on error, for statically-known paths.
func MustNew(types ...hin.TypeID) Path {
	p, err := New(types...)
	if err != nil {
		panic(err)
	}
	return p
}

// FromNames builds a meta-path by resolving type names against a schema.
func FromNames(s *hin.Schema, names ...string) (Path, error) {
	if len(names) == 0 {
		return Path{}, fmt.Errorf("metapath: a meta-path needs at least one vertex type")
	}
	types := make([]hin.TypeID, len(names))
	for i, n := range names {
		t, ok := s.TypeByName(n)
		if !ok {
			return Path{}, fmt.Errorf("metapath: unknown vertex type %q", n)
		}
		types[i] = t
	}
	return mk(types), nil
}

// ParseDotted parses the query-language form "author.paper.venue".
func ParseDotted(s *hin.Schema, dotted string) (Path, error) {
	parts := strings.Split(dotted, ".")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
		if parts[i] == "" {
			return Path{}, fmt.Errorf("metapath: empty segment in %q", dotted)
		}
	}
	return FromNames(s, parts...)
}

// Len reports the number of vertex types in the path (hops + 1).
func (p Path) Len() int { return len(p.types) }

// Hops reports the number of edges a path instance traverses, |P| in the
// paper's notation (a length-2 meta-path has 3 types and 2 hops).
func (p Path) Hops() int { return len(p.types) - 1 }

// IsZero reports whether p is the invalid zero Path.
func (p Path) IsZero() bool { return len(p.types) == 0 }

// Type returns the i-th vertex type.
func (p Path) Type(i int) hin.TypeID { return p.types[i] }

// Source returns the first vertex type T0.
func (p Path) Source() hin.TypeID { return p.types[0] }

// Target returns the last vertex type Tl.
func (p Path) Target() hin.TypeID { return p.types[len(p.types)-1] }

// Reverse returns P⁻¹ = (Tl ... T0) (Definition 3).
func (p Path) Reverse() Path {
	rev := make([]hin.TypeID, len(p.types))
	for i, t := range p.types {
		rev[len(p.types)-1-i] = t
	}
	return mk(rev)
}

// Concat returns the concatenation (P Q) (Definition 4). The target type of
// p must equal the source type of q; the shared type appears once.
func (p Path) Concat(q Path) (Path, error) {
	if p.IsZero() || q.IsZero() {
		return Path{}, fmt.Errorf("metapath: cannot concatenate zero paths")
	}
	if p.Target() != q.Source() {
		return Path{}, fmt.Errorf("metapath: concat type mismatch (target %d != source %d)", p.Target(), q.Source())
	}
	out := make([]hin.TypeID, 0, len(p.types)+len(q.types)-1)
	out = append(out, p.types...)
	out = append(out, q.types[1:]...)
	return mk(out), nil
}

// Symmetric returns Psym = (P P⁻¹), the round-trip path used to define
// connectivity κ in Section 5.1. For P = (A P V) it is (A P V P A).
func (p Path) Symmetric() Path {
	sym, err := p.Concat(p.Reverse())
	if err != nil {
		// Unreachable: Target(P) always equals Source(P⁻¹).
		panic(err)
	}
	return sym
}

// Validate checks that every type exists in the schema and every
// consecutive pair is an allowed edge.
func (p Path) Validate(s *hin.Schema) error {
	if p.IsZero() {
		return fmt.Errorf("metapath: zero path")
	}
	for _, t := range p.types {
		if int(t) >= s.NumTypes() {
			return fmt.Errorf("metapath: type id %d outside schema", t)
		}
	}
	for i := 0; i+1 < len(p.types); i++ {
		if !s.EdgeAllowed(p.types[i], p.types[i+1]) {
			return fmt.Errorf("metapath: schema forbids hop %s->%s",
				s.TypeName(p.types[i]), s.TypeName(p.types[i+1]))
		}
	}
	return nil
}

// Key returns a compact comparable key for use as a map key: one byte per
// vertex type, in path order. It is precomputed at construction, so calling
// it in a cache-probe hot loop costs a field load, not an allocation; the
// key of the prefix with j hops is the substring Key()[:j+1] (no copy).
func (p Path) Key() string { return p.key }

// FromKey reconstructs a Path from a Key (or from any prefix of one).
func FromKey(k string) Path {
	types := make([]hin.TypeID, len(k))
	for i := 0; i < len(k); i++ {
		types[i] = hin.TypeID(k[i])
	}
	return mk(types)
}

// Dotted renders the path in the query-language form "author.paper.venue".
func (p Path) Dotted(s *hin.Schema) string {
	parts := make([]string, len(p.types))
	for i, t := range p.types {
		parts[i] = s.TypeName(t)
	}
	return strings.Join(parts, ".")
}

// Enumerate lists schema-valid meta-paths starting at src with minHops to
// maxHops hops, in depth-first order. To keep the space meaningful it
// bounds repetition: any type may appear at most twice after the source
// (so round trips like A.P.A are produced but A-P-A-P-A oscillation is
// not). Used by feature suggestion and by tooling that explores the schema.
func Enumerate(s *hin.Schema, src hin.TypeID, minHops, maxHops int) []Path {
	if minHops < 1 {
		minHops = 1
	}
	var out []Path
	var walk func(types []hin.TypeID)
	walk = func(types []hin.TypeID) {
		hops := len(types) - 1
		if hops >= minHops {
			out = append(out, MustNew(types...))
		}
		if hops == maxHops {
			return
		}
		last := types[len(types)-1]
		for _, next := range s.AllowedFrom(last) {
			seen := 0
			for _, t := range types[1:] {
				if t == next {
					seen++
				}
			}
			if seen >= 2 {
				continue
			}
			walk(append(append([]hin.TypeID(nil), types...), next))
		}
	}
	walk([]hin.TypeID{src})
	return out
}

// String renders the path with numeric type IDs, e.g. "(0 1 3)".
func (p Path) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, t := range p.types {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", t)
	}
	sb.WriteByte(')')
	return sb.String()
}
