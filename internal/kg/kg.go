// Package kg ingests open-schema knowledge graphs — subject/predicate/object
// triples in the RDF spirit — into heterogeneous information networks.
// Section 8 of the paper notes that "our query language can be applied to
// open-schema networks such as a knowledge graph"; this package derives the
// closed HIN schema the engine needs from the triples themselves: `type`
// declarations become vertex types, every other predicate becomes an
// allowed link between the types of its endpoints.
//
// The triple format is line oriented, tab separated:
//
//	# comment
//	Alice	type	person
//	UIUC	type	university
//	Alice	worksAt	UIUC
//
// Multiple predicates between the same endpoint types are merged into one
// link type; repeated triples raise the edge multiplicity, so "mentions"
// counts accumulate naturally.
package kg

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"netout/internal/hin"
)

// TypePredicate is the predicate that declares an entity's type.
const TypePredicate = "type"

// Triple is one (subject, predicate, object) statement.
type Triple struct {
	Subject, Predicate, Object string
}

// Store accumulates triples before conversion.
type Store struct {
	triples []Triple
	types   map[string]string // entity -> declared type
}

// NewStore creates an empty triple store.
func NewStore() *Store {
	return &Store{types: make(map[string]string)}
}

// Len reports the number of non-type triples stored.
func (st *Store) Len() int { return len(st.triples) }

// Add records one triple. Type declarations (predicate "type") assign the
// subject's vertex type; an entity may be declared once (re-declaring the
// same type is idempotent, conflicting declarations fail).
func (st *Store) Add(subject, predicate, object string) error {
	if subject == "" || predicate == "" || object == "" {
		return fmt.Errorf("kg: triple needs subject, predicate and object")
	}
	if predicate == TypePredicate {
		if prev, ok := st.types[subject]; ok && prev != object {
			return fmt.Errorf("kg: entity %q declared both %q and %q", subject, prev, object)
		}
		st.types[subject] = object
		return nil
	}
	st.triples = append(st.triples, Triple{subject, predicate, object})
	return nil
}

// ToHIN converts the store into a heterogeneous information network.
// Every entity must have a type declaration; every triple connects two
// typed entities. Repeated triples raise edge multiplicity.
func (st *Store) ToHIN() (*hin.Graph, error) {
	if len(st.types) == 0 {
		return nil, fmt.Errorf("kg: no type declarations")
	}
	typeSet := map[string]bool{}
	for _, t := range st.types {
		typeSet[t] = true
	}
	typeNames := make([]string, 0, len(typeSet))
	for t := range typeSet {
		typeNames = append(typeNames, t)
	}
	sort.Strings(typeNames)
	schema, err := hin.NewSchema(typeNames...)
	if err != nil {
		return nil, err
	}

	// First pass: derive allowed links from the triples.
	for _, tr := range st.triples {
		ts, err := st.typeOf(tr.Subject)
		if err != nil {
			return nil, err
		}
		to, err := st.typeOf(tr.Object)
		if err != nil {
			return nil, err
		}
		s, _ := schema.TypeByName(ts)
		o, _ := schema.TypeByName(to)
		schema.AllowLink(s, o)
	}

	b := hin.NewBuilder(schema)
	vertexOf := make(map[string]hin.VertexID, len(st.types))
	// Deterministic vertex order: sorted entity names.
	entities := make([]string, 0, len(st.types))
	for e := range st.types {
		entities = append(entities, e)
	}
	sort.Strings(entities)
	for _, e := range entities {
		t, _ := schema.TypeByName(st.types[e])
		v, err := b.AddVertex(t, e)
		if err != nil {
			return nil, err
		}
		vertexOf[e] = v
	}
	for _, tr := range st.triples {
		if err := b.AddEdge(vertexOf[tr.Subject], vertexOf[tr.Object]); err != nil {
			return nil, fmt.Errorf("kg: triple (%s %s %s): %w", tr.Subject, tr.Predicate, tr.Object, err)
		}
	}
	return b.Build(), nil
}

func (st *Store) typeOf(entity string) (string, error) {
	t, ok := st.types[entity]
	if !ok {
		return "", fmt.Errorf("kg: entity %q has no type declaration", entity)
	}
	return t, nil
}

// Read parses tab-separated triples from r into a new store. Blank lines
// and lines starting with '#' are skipped.
func Read(r io.Reader) (*Store, error) {
	st := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			return nil, fmt.Errorf("kg: line %d: want 3 tab-separated fields, got %d", lineNo, len(fields))
		}
		if err := st.Add(fields[0], fields[1], fields[2]); err != nil {
			return nil, fmt.Errorf("kg: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("kg: %w", err)
	}
	return st, nil
}

// Load reads triples from a file.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits the store's triples (type declarations first) in the format
// Read accepts.
func (st *Store) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	entities := make([]string, 0, len(st.types))
	for e := range st.types {
		entities = append(entities, e)
	}
	sort.Strings(entities)
	for _, e := range entities {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", e, TypePredicate, st.types[e]); err != nil {
			return err
		}
	}
	for _, t := range st.triples {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", t.Subject, t.Predicate, t.Object); err != nil {
			return err
		}
	}
	return bw.Flush()
}
