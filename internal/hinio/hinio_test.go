package hinio

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netout/internal/gen"
	"netout/internal/hin"
)

func sampleGraph(t *testing.T) *hin.Graph {
	t.Helper()
	s := hin.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := hin.NewBuilder(s)
	// Names exercising escaping: tabs, newlines, backslashes, unicode.
	a1 := b.MustAddVertex(a, "Alice\tTab")
	a2 := b.MustAddVertex(a, "Bob\nNewline")
	p1 := b.MustAddVertex(p, `back\slash`)
	p2 := b.MustAddVertex(p, "日本語")
	v1 := b.MustAddVertex(v, "EDBT")
	b.MustAddEdge(p1, a1)
	b.MustAddEdge(p1, a2)
	b.MustAddEdge(p1, v1)
	b.MustAddEdge(p2, a1)
	if err := b.AddEdgeMult(p2, v1, 3); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func graphsEqual(t *testing.T, a, b *hin.Graph) {
	t.Helper()
	if !reflect.DeepEqual(a.Schema(), b.Schema()) {
		t.Fatal("schemas differ")
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		vid := hin.VertexID(v)
		if a.Name(vid) != b.Name(vid) || a.Type(vid) != b.Type(vid) {
			t.Fatalf("vertex %d differs: %q/%d vs %q/%d", v, a.Name(vid), a.Type(vid), b.Name(vid), b.Type(vid))
		}
		for tt := 0; tt < a.Schema().NumTypes(); tt++ {
			an, am := a.Neighbors(vid, hin.TypeID(tt))
			bn, bm := b.Neighbors(vid, hin.TypeID(tt))
			if len(an) != len(bn) {
				t.Fatalf("vertex %d type %d neighbor count differs", v, tt)
			}
			for i := range an {
				if an[i] != bn[i] || am[i] != bm[i] {
					t.Fatalf("vertex %d neighbor %d differs", v, i)
				}
			}
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestGeneratedGraphRoundTrip(t *testing.T) {
	cfg := gen.Default()
	cfg.Papers = 300
	cfg.AuthorsPerCommunity = 30
	cfg.TermsPerCommunity = 30
	g, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
}

func TestFileHelpersAndDispatch(t *testing.T) {
	g := sampleGraph(t)
	dir := t.TempDir()
	tsvPath := filepath.Join(dir, "net.tsv")
	jsonPath := filepath.Join(dir, "net.json")
	if err := Save(tsvPath, g); err != nil {
		t.Fatal(err)
	}
	if err := Save(jsonPath, g); err != nil {
		t.Fatal(err)
	}
	g1, err := Load(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g1)
	g2, err := Load(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, g2)
	if _, err := Load(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "not a header\n",
		"unknown record": tsvHeader + "\nX\tfoo\n",
		"short T":        tsvHeader + "\nT\n",
		"bad V type":     tsvHeader + "\nT\ta\nV\tx\tname\n",
		"V out of range": tsvHeader + "\nT\ta\nV\t7\tname\n",
		"short E":        tsvHeader + "\nT\ta\nL\t0\t0\nV\t0\tx\nE\t0\t0\n",
		"bad E mult":     tsvHeader + "\nT\ta\nL\t0\t0\nV\t0\tx\nE\t0\t0\tzero\n",
		"zero E mult":    tsvHeader + "\nT\ta\nL\t0\t0\nV\t0\tx\nE\t0\t0\t0\n",
		"E out of range": tsvHeader + "\nT\ta\nL\t0\t0\nV\t0\tx\nE\t0\t5\t1\n",
		"L out of range": tsvHeader + "\nT\ta\nL\t0\t9\n",
		"dup vertex":     tsvHeader + "\nT\ta\nV\t0\tx\nV\t0\tx\n",
		"schema edge":    tsvHeader + "\nT\ta\nT\tb\nV\t0\tx\nV\t1\ty\nE\t0\t1\t1\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadTSV(strings.NewReader(src)); err == nil {
				t.Errorf("ReadTSV(%q) should fail", src)
			}
		})
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      "zzz",
		"unknown link":  `{"types":["a"],"links":[["a","b"]],"vertices":[],"edges":[]}`,
		"unknown vtype": `{"types":["a"],"links":[],"vertices":[{"type":"b","name":"x"}],"edges":[]}`,
		"dup vertex":    `{"types":["a"],"links":[],"vertices":[{"type":"a","name":"x"},{"type":"a","name":"x"}],"edges":[]}`,
		"edge range":    `{"types":["a"],"links":[["a","a"]],"vertices":[{"type":"a","name":"x"}],"edges":[[0,5,1]]}`,
		"edge mult":     `{"types":["a"],"links":[["a","a"]],"vertices":[{"type":"a","name":"x"}],"edges":[[0,0,0]]}`,
		"no types":      `{"types":[],"links":[],"vertices":[],"edges":[]}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(src)); err == nil {
				t.Errorf("ReadJSON(%q) should fail", src)
			}
		})
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{"", "plain", "tab\there", "nl\nhere", `bs\here`, `mix\t\n\\`, "trailing\\"}
	for _, s := range cases {
		if got := unescape(escape(s)); got != s {
			t.Errorf("escape round trip of %q -> %q", s, got)
		}
	}
	// Unknown escapes pass through unchanged.
	if got := unescape(`\q`); got != `\q` {
		t.Errorf("unknown escape mangled: %q", got)
	}
}
