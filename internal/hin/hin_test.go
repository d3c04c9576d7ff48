package hin

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func bibSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("author", "paper", "venue", "term")
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	tm, _ := s.TypeByName("term")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	s.AllowLink(p, tm)
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := bibSchema(t)
	if got := s.NumTypes(); got != 4 {
		t.Fatalf("NumTypes = %d, want 4", got)
	}
	a, ok := s.TypeByName("author")
	if !ok {
		t.Fatal("author type missing")
	}
	if s.TypeName(a) != "author" {
		t.Fatalf("TypeName round-trip failed: %q", s.TypeName(a))
	}
	if _, ok := s.TypeByName("nosuch"); ok {
		t.Fatal("unknown type resolved")
	}
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	if !s.EdgeAllowed(p, v) || !s.EdgeAllowed(v, p) {
		t.Fatal("paper-venue link should be allowed both ways")
	}
	if s.EdgeAllowed(a, v) {
		t.Fatal("author-venue should not be allowed")
	}
	from := s.AllowedFrom(p)
	if len(from) != 3 {
		t.Fatalf("AllowedFrom(paper) = %v, want 3 types", from)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate type should fail")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty type name should fail")
	}
	many := make([]string, MaxTypes+1)
	for i := range many {
		many[i] = strings.Repeat("x", i+1)
	}
	if _, err := NewSchema(many...); err == nil {
		t.Error("too many types should fail")
	}
}

func TestSchemaCloneEqual(t *testing.T) {
	s := bibSchema(t)
	c := s.Clone()
	if !reflect.DeepEqual(s, c) {
		t.Fatal("clone not equal to original")
	}
	a, _ := c.TypeByName("author")
	v, _ := c.TypeByName("venue")
	c.AllowLink(a, v)
	if reflect.DeepEqual(s, c) {
		t.Fatal("mutated clone should differ")
	}
}

// figure1Graph builds the instantiated bibliographic network of Figure 1(b):
// Zoe authors five papers (two at ICDE, three at KDD); Liam coauthors two of
// Zoe's papers; Ava coauthors one of Zoe's papers and one extra paper with
// Liam.
func figure1Graph(t *testing.T) (*Graph, *Schema) {
	t.Helper()
	s := bibSchema(t)
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	ve, _ := s.TypeByName("venue")
	b := NewBuilder(s)
	ava := b.MustAddVertex(a, "Ava")
	liam := b.MustAddVertex(a, "Liam")
	zoe := b.MustAddVertex(a, "Zoe")
	icde := b.MustAddVertex(ve, "ICDE")
	kdd := b.MustAddVertex(ve, "KDD")
	papers := make([]VertexID, 6)
	for i := range papers {
		papers[i] = b.MustAddVertex(p, fmt.Sprintf("p%d", i+1))
	}
	// Zoe's five papers.
	for i := 0; i < 5; i++ {
		b.MustAddEdge(papers[i], zoe)
	}
	b.MustAddEdge(papers[0], icde)
	b.MustAddEdge(papers[1], icde)
	b.MustAddEdge(papers[2], kdd)
	b.MustAddEdge(papers[3], kdd)
	b.MustAddEdge(papers[4], kdd)
	// Liam coauthors papers 0 and 1 with Zoe.
	b.MustAddEdge(papers[0], liam)
	b.MustAddEdge(papers[1], liam)
	// Ava coauthors paper 2 with Zoe.
	b.MustAddEdge(papers[2], ava)
	// Extra paper by Ava and Liam at KDD.
	b.MustAddEdge(papers[5], ava)
	b.MustAddEdge(papers[5], liam)
	b.MustAddEdge(papers[5], kdd)
	return b.Build(), s
}

func TestBuilderAndGraph(t *testing.T) {
	g, s := figure1Graph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 11 {
		t.Fatalf("NumVertices = %d, want 11", g.NumVertices())
	}
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	if g.NumVerticesOfType(a) != 3 || g.NumVerticesOfType(p) != 6 || g.NumVerticesOfType(v) != 2 {
		t.Fatalf("per-type counts wrong: %+v", g.Stats())
	}
	zoe, ok := g.VertexByName(a, "Zoe")
	if !ok {
		t.Fatal("Zoe missing")
	}
	if g.Name(zoe) != "Zoe" || g.Type(zoe) != a {
		t.Fatal("Zoe metadata wrong")
	}
	if d := g.Degree(zoe, p); d != 5 {
		t.Fatalf("Zoe paper degree = %d, want 5", d)
	}
	if d := g.Degree(zoe, v); d != 0 {
		t.Fatalf("Zoe venue degree = %d, want 0", d)
	}
	nbrs, mults := g.Neighbors(zoe, p)
	if len(nbrs) != 5 {
		t.Fatalf("Zoe paper neighbors = %v", nbrs)
	}
	for i := range nbrs {
		if i > 0 && nbrs[i-1] >= nbrs[i] {
			t.Fatal("neighbors not sorted")
		}
		if mults[i] != 1 {
			t.Fatalf("unexpected multiplicity %d", mults[i])
		}
	}
	st := g.Stats()
	if st.Vertices != 11 || st.PerType["author"] != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if g.NumEdges() != st.EdgesDirected || g.NumEdges() == 0 {
		t.Fatal("edge count inconsistent")
	}
}

func TestBuilderUpsertAndErrors(t *testing.T) {
	s := bibSchema(t)
	a, _ := s.TypeByName("author")
	v, _ := s.TypeByName("venue")
	p, _ := s.TypeByName("paper")
	b := NewBuilder(s)
	x1 := b.MustAddVertex(a, "X")
	x2 := b.MustAddVertex(a, "X")
	if x1 != x2 {
		t.Fatalf("duplicate name should upsert: %d vs %d", x1, x2)
	}
	if _, err := b.AddVertex(TypeID(99), "bad"); err == nil {
		t.Error("unknown type should fail")
	}
	ven := b.MustAddVertex(v, "V1")
	if err := b.AddEdge(x1, ven); err == nil {
		t.Error("schema-forbidden edge should fail")
	}
	if err := b.AddEdge(x1, VertexID(99)); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	pap := b.MustAddVertex(p, "P1")
	if err := b.AddEdgeMult(x1, pap, 0); err == nil {
		t.Error("non-positive multiplicity should fail")
	}
	if err := b.AddEdgeMult(x1, pap, 3); err != nil {
		t.Fatalf("AddEdgeMult: %v", err)
	}
	if err := b.AddEdge(x1, pap); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m := g.EdgeMultiplicity(x1, pap); m != 4 {
		t.Fatalf("multiplicity = %d, want 4", m)
	}
	if m := g.EdgeMultiplicity(pap, x1); m != 4 {
		t.Fatalf("reverse multiplicity = %d, want 4", m)
	}
	if m := g.EdgeMultiplicity(x1, ven); m != 0 {
		t.Fatalf("absent edge multiplicity = %d, want 0", m)
	}
}

func TestVertexLookup(t *testing.T) {
	g, s := figure1Graph(t)
	a, _ := s.TypeByName("author")
	v, _ := s.TypeByName("venue")
	if _, ok := g.VertexByName(a, "Nobody"); ok {
		t.Error("unknown name resolved")
	}
	if _, ok := g.VertexByName(v, "Ava"); ok {
		t.Error("name from wrong type resolved")
	}
	ava, ok := g.VertexByName(a, "Ava")
	if !ok || g.Name(ava) != "Ava" {
		t.Error("Ava lookup failed")
	}
	if !g.Valid(ava) || g.Valid(InvalidVertex) || g.Valid(VertexID(1000)) {
		t.Error("Valid misbehaves")
	}
}

func TestVerticesOfTypeSorted(t *testing.T) {
	g, s := figure1Graph(t)
	p, _ := s.TypeByName("paper")
	vs := g.VerticesOfType(p)
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			t.Fatal("VerticesOfType not ascending")
		}
	}
}

func TestTypeIDSpan(t *testing.T) {
	g, s := figure1Graph(t)
	for _, name := range []string{"author", "paper", "venue"} {
		tp, _ := s.TypeByName(name)
		lo, hi, ok := g.TypeIDSpan(tp)
		if !ok {
			t.Fatalf("TypeIDSpan(%s) not ok", name)
		}
		vs := g.VerticesOfType(tp)
		if lo != vs[0] || hi != vs[len(vs)-1] {
			t.Fatalf("TypeIDSpan(%s) = [%d,%d], want [%d,%d]", name, lo, hi, vs[0], vs[len(vs)-1])
		}
		if int(hi)-int(lo)+1 < len(vs) {
			t.Fatalf("TypeIDSpan(%s) narrower than the type's count", name)
		}
	}
	// A type with no vertices reports !ok.
	term, _ := s.TypeByName("term")
	if g.NumVerticesOfType(term) == 0 {
		if _, _, ok := g.TypeIDSpan(term); ok {
			t.Fatal("TypeIDSpan of empty type should be !ok")
		}
	}
}

func TestSelfLoopEdge(t *testing.T) {
	s := MustSchema("node")
	n, _ := s.TypeByName("node")
	s.AllowLink(n, n)
	b := NewBuilder(s)
	x := b.MustAddVertex(n, "x")
	if err := b.AddEdge(x, x); err != nil {
		t.Fatalf("self loop: %v", err)
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m := g.EdgeMultiplicity(x, x); m != 1 {
		t.Fatalf("self-loop multiplicity = %d, want 1", m)
	}
}

func TestSchemaString(t *testing.T) {
	s := bibSchema(t)
	str := s.String()
	for _, want := range []string{"author", "paper", "venue", "term", "paper->venue"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
