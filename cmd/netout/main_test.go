package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netout"
	"netout/internal/gen"
)

func TestSplitStatements(t *testing.T) {
	src := "FIND OUTLIERS FROM a JUDGED BY a.b;\n\n  FIND OUTLIERS FROM c JUDGED BY c.d ; ;\n"
	got := splitStatements(src)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	for _, stmt := range got {
		if !strings.HasSuffix(stmt, ";") {
			t.Fatalf("statement missing terminator: %q", stmt)
		}
	}
	if got := splitStatements("   \n"); len(got) != 0 {
		t.Fatalf("blank input gave %v", got)
	}
}

func TestSplitNameAndQuery(t *testing.T) {
	name, query, err := splitNameAndQuery(`"Ada Lovelace" FIND OUTLIERS ...`)
	if err != nil || name != "Ada Lovelace" || query != "FIND OUTLIERS ..." {
		t.Fatalf("got %q %q %v", name, query, err)
	}
	name, query, err = splitNameAndQuery(`'X' Q`)
	if err != nil || name != "X" || query != "Q" {
		t.Fatalf("got %q %q %v", name, query, err)
	}
	name, query, err = splitNameAndQuery("Bob FIND ...")
	if err != nil || name != "Bob" || query != "FIND ..." {
		t.Fatalf("got %q %q %v", name, query, err)
	}
	for _, bad := range []string{"", `"unterminated`, "loneword"} {
		if _, _, err := splitNameAndQuery(bad); err == nil {
			t.Errorf("splitNameAndQuery(%q) should fail", bad)
		}
	}
}

func TestCollectQueries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.oql")
	if err := os.WriteFile(path, []byte("A JUDGED BY x.y;\nB JUDGED BY x.y;"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := collectQueries("single;", path)
	if err != nil || len(got) != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := collectQueries("", filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadNetwork(t *testing.T) {
	if _, err := loadNetwork("", 0, 1, true); err == nil {
		t.Error("no source should fail")
	}
	if _, err := loadNetwork("x", 1, 1, true); err == nil {
		t.Error("both sources should fail")
	}
	g, err := loadNetwork("", 1, 1, true)
	if err != nil || g.NumVertices() == 0 {
		t.Fatalf("gen load failed: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "net.tsv")
	if err := netout.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := loadNetwork(path, 0, 1, true)
	if err != nil || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("file load failed: %v", err)
	}
}

func smallGraph(t *testing.T) *netout.Graph {
	t.Helper()
	cfg := gen.Default()
	cfg.Papers = 200
	cfg.AuthorsPerCommunity = 25
	cfg.TermsPerCommunity = 25
	g, _, err := netout.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildMaterializer(t *testing.T) {
	g := smallGraph(t)
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue;`
	for _, strat := range []string{"baseline", "pm", "spm", "cached"} {
		mat, err := buildMaterializer(g, strat, 0.5, 1<<20, []string{q}, true)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if mat == nil {
			t.Fatalf("%s: nil materializer", strat)
		}
	}
	if _, err := buildMaterializer(g, "spm", 0.5, 0, nil, true); err == nil {
		t.Error("spm without queries should fail")
	}
	if _, err := buildMaterializer(g, "cached", 0.5, 0, nil, true); err == nil {
		t.Error("cached with zero budget should fail")
	}
	if _, err := buildMaterializer(g, "wat", 0.5, 0, nil, true); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestPrintResult(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printResult(&buf, res, true)
	out := buf.String()
	for _, want := range []string{"rank", "timing:", "candidates", "trace: total"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// With a cached materializer wired in, -timing also reports cache stats
	// via CacheStats.String.
	mat, err := netout.NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	statsMat = mat
	defer func() { statsMat = nil }()
	eng2 := netout.NewEngine(g, netout.WithMaterializer(mat))
	res2, err := eng2.Execute(`FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	printResult(&buf, res2, true)
	if !strings.Contains(buf.String(), "cache: ") || !strings.Contains(buf.String(), "hit rate") {
		t.Errorf("timing output missing cache stats:\n%s", buf.String())
	}
}

func TestNameIndex(t *testing.T) {
	g := smallGraph(t)
	ni := newNameIndex(g)
	if err := ni.print("author", "Christos", 5); err != nil {
		t.Fatal(err)
	}
	if err := ni.print("author", "Christos", 5); err != nil { // already sorted
		t.Fatal(err)
	}
	if err := ni.print("nosuch", "", 5); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestDispatchCommands(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	ni := newNameIndex(g)
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3`
	cases := []string{
		".help",
		".schema",
		".names author Christos",
		q,
		".explain \"Christos Hub\" " + q,
		".suggest " + q,
		".progressive " + q,
	}
	for _, bare := range cases {
		if err := dispatch(eng, ni, bare+";", bare, false); err != nil {
			t.Errorf("dispatch(%q): %v", bare, err)
		}
	}
	bad := []string{
		".unknown",
		".names",
		".explain onlyname",
		".explain",
		".suggest bogus",
	}
	for _, bare := range bad {
		if err := dispatch(eng, ni, bare+";", bare, false); err == nil {
			t.Errorf("dispatch(%q) should fail", bare)
		}
	}
}

// captureStdout returns what fn printed to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-out
}

// Vertex names contain spaces, so the prefix of .names is the rest of the
// line: "Author 0-000" narrows to the authors it starts, where taking only
// the next word listed every "Author".
func TestNamesPrefixIsTheRestOfTheLine(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	bare := ".names author Author 0-000"
	var derr error
	out := captureStdout(t, func() { derr = dispatch(eng, newNameIndex(g), bare+";", bare, false) })
	if derr != nil {
		t.Fatal(derr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) == 0 || len(lines) > 10 {
		t.Fatalf(".names listed %d lines, want the handful of names Author 0-000 starts:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(strings.TrimSpace(l), "Author 0-000") {
			t.Fatalf(".names listed %q under the prefix Author 0-000:\n%s", l, out)
		}
	}
}

// .hist covers the full candidate set whether or not the query has a TOP
// clause.
func TestHistIgnoresTop(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	q := `.hist FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue`
	var hists [2]string
	for i, bare := range []string{q, q + " TOP 3"} {
		var derr error
		hists[i] = captureStdout(t, func() { derr = dispatch(eng, newNameIndex(g), bare+";", bare, false) })
		if derr != nil {
			t.Fatal(derr)
		}
	}
	if hists[0] == "" || hists[0] != hists[1] {
		t.Fatalf(".hist with TOP 3 differs from .hist without:\n%s\nvs\n%s", hists[1], hists[0])
	}
}

// .progressive runs under the engine's measure: started with -measure
// pathsim, it prints its snapshots and then the final ranking.
func TestProgressiveUnderPathSim(t *testing.T) {
	g := smallGraph(t)
	m, err := netout.ParseMeasure("pathsim")
	if err != nil {
		t.Fatal(err)
	}
	eng := netout.NewEngine(g, netout.WithMeasure(m))
	bare := `.progressive FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3`
	var derr error
	out := captureStdout(t, func() { derr = dispatch(eng, newNameIndex(g), bare+";", bare, false) })
	if derr != nil {
		t.Fatal(derr)
	}
	if !strings.Contains(out, " refs]") || !strings.Contains(out, "rank ") || !strings.Contains(out, "reference vertices") {
		t.Fatalf(".progressive under pathsim printed no snapshot or no result:\n%s", out)
	}
}

func TestReplFromScriptedSession(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	script := strings.Join([]string{
		".help;",
		"FIND OUTLIERS FROM author{\"Christos Hub\"}.paper.author", // multi-line query
		"JUDGED BY author.paper.venue TOP 2;",
		".hist FIND OUTLIERS FROM author JUDGED BY author.paper.venue;",
		"broken query;",
		"exit;",
		"never reached;",
	}, "\n") + "\n"
	// The REPL prints to stdout; drive it end-to-end and just assert it
	// terminates at "exit;" without panicking.
	replFrom(eng, true, strings.NewReader(script))
	// EOF without quit also terminates.
	replFrom(eng, false, strings.NewReader("FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 1;\n"))
}

func TestJSONOutput(t *testing.T) {
	g := smallGraph(t)
	eng := netout.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 2;`)
	if err != nil {
		t.Fatal(err)
	}
	jsonResults = true
	defer func() { jsonResults = false }()
	var buf bytes.Buffer
	printResult(&buf, res, false)
	var jr jsonResult
	if err := json.Unmarshal(buf.Bytes(), &jr); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(jr.Entries) != 2 || jr.Entries[0].Rank != 1 || jr.CandidateCount == 0 {
		t.Fatalf("json result = %+v", jr)
	}
	if jr.Timing != nil || jr.Trace != nil {
		t.Fatalf("timing/trace emitted without -timing: %+v", jr)
	}

	// -json -timing composes: the cost breakdown and phase trace ride along.
	buf.Reset()
	printResult(&buf, res, true)
	if err := json.Unmarshal(buf.Bytes(), &jr); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if jr.Timing == nil {
		t.Fatal("-json -timing missing timing block")
	}
	wantPhases := []string{"parse", "validate", "plan", "materialize", "score", "rank"}
	if len(jr.Trace) != len(wantPhases) {
		t.Fatalf("trace = %+v, want %d phases", jr.Trace, len(wantPhases))
	}
	for i, want := range wantPhases {
		if jr.Trace[i].Phase != want {
			t.Fatalf("trace phase %d = %q, want %q", i, jr.Trace[i].Phase, want)
		}
	}
}
