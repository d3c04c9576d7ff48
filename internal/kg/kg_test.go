package kg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"netout/internal/core"
)

const sampleTriples = `# a tiny academic knowledge graph
Alice	type	person
Bob	type	person
Carol	type	person
UIUC	type	university
UCSB	type	university
GraphLab	type	project
MinerX	type	project
Alice	worksAt	UIUC
Bob	worksAt	UIUC
Carol	worksAt	UCSB
Alice	contributesTo	GraphLab
Bob	contributesTo	GraphLab
Carol	contributesTo	MinerX
Alice	contributesTo	MinerX
`

func TestReadAndToHIN(t *testing.T) {
	st, err := Read(strings.NewReader(sampleTriples))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if st.Len() != 7 {
		t.Fatalf("triples=%d", st.Len())
	}
	g, err := st.ToHIN()
	if err != nil {
		t.Fatalf("ToHIN: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	s := g.Schema()
	person, ok := s.TypeByName("person")
	if !ok {
		t.Fatal("person type missing")
	}
	uni, _ := s.TypeByName("university")
	if g.NumVerticesOfType(person) != 3 || g.NumVerticesOfType(uni) != 2 {
		t.Fatalf("counts wrong: %+v", g.Stats())
	}
	alice, _ := g.VertexByName(person, "Alice")
	if d := g.Degree(alice, uni); d != 1 {
		t.Fatalf("Alice university degree = %d", d)
	}
	// The derived network answers outlier queries: among GraphLab's
	// contributors' colleagues... keep it simple: people judged by projects.
	eng := core.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS FROM person JUDGED BY person.project TOP 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %+v", res.Entries)
	}
}

func TestRepeatedTriplesRaiseMultiplicity(t *testing.T) {
	st := NewStore()
	for _, tr := range [][3]string{
		{"a", "type", "person"}, {"p", "type", "project"},
		{"a", "contributesTo", "p"}, {"a", "contributesTo", "p"}, {"a", "contributesTo", "p"},
	} {
		if err := st.Add(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := st.ToHIN()
	if err != nil {
		t.Fatal(err)
	}
	person, _ := g.Schema().TypeByName("person")
	project, _ := g.Schema().TypeByName("project")
	a, _ := g.VertexByName(person, "a")
	p, _ := g.VertexByName(project, "p")
	if m := g.EdgeMultiplicity(a, p); m != 3 {
		t.Fatalf("multiplicity = %d, want 3", m)
	}
}

func TestAddErrors(t *testing.T) {
	st := NewStore()
	if err := st.Add("", "p", "o"); err == nil {
		t.Error("empty subject accepted")
	}
	if err := st.Add("s", "", "o"); err == nil {
		t.Error("empty predicate accepted")
	}
	if err := st.Add("s", "p", ""); err == nil {
		t.Error("empty object accepted")
	}
	if err := st.Add("x", "type", "person"); err != nil {
		t.Fatal(err)
	}
	if err := st.Add("x", "type", "person"); err != nil {
		t.Errorf("idempotent re-declaration should pass: %v", err)
	}
	if err := st.Add("x", "type", "robot"); err == nil {
		t.Error("conflicting type declaration accepted")
	}
}

func TestToHINErrors(t *testing.T) {
	if _, err := NewStore().ToHIN(); err == nil {
		t.Error("empty store accepted")
	}
	st := NewStore()
	st.Add("a", "type", "person")
	st.Add("a", "knows", "ghost") // ghost has no type
	if _, err := st.ToHIN(); err == nil {
		t.Error("untyped entity accepted")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"wrong fields": "a\tb\n",
		"bad triple":   "\ttype\tperson\n",
		"conflict":     "a\ttype\tx\na\ttype\ty\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(src)); err == nil {
				t.Errorf("Read(%q) should fail", src)
			}
		})
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	st, err := Read(strings.NewReader(sampleTriples))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Fatalf("round trip changed the store: %d triples, want %d", st2.Len(), st.Len())
	}
	g1, _ := st.ToHIN()
	g2, _ := st2.ToHIN()
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/triples.tsv"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLargerKnowledgeGraphOutliers(t *testing.T) {
	// People in two cities; everyone attends events in their own city
	// except one planted traveler.
	st := NewStore()
	add := func(s, p, o string) {
		if err := st.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		city := fmt.Sprintf("city%d", c)
		add(city, "type", "city")
		for e := 0; e < 3; e++ {
			ev := fmt.Sprintf("event-%d-%d", c, e)
			add(ev, "type", "event")
			add(ev, "heldIn", city)
		}
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("person%02d", i)
		add(p, "type", "person")
		c := i % 2
		for e := 0; e < 3; e++ {
			add(p, "attended", fmt.Sprintf("event-%d-%d", c, e))
		}
	}
	// The traveler lives among city-0 folks but attends city-1 events.
	add("traveler", "type", "person")
	add("traveler", "attended", "event-0-0")
	for e := 0; e < 3; e++ {
		add("traveler", "attended", fmt.Sprintf("event-1-%d", e))
		add("traveler", "attended", fmt.Sprintf("event-1-%d", e))
	}
	g, err := st.ToHIN()
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS
FROM event{"event-0-0"}.person
JUDGED BY person.event.city
TOP 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries[0].Name != "traveler" {
		t.Fatalf("top outlier = %s, want traveler", res.Entries[0].Name)
	}
}
