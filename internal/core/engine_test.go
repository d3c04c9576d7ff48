package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// fig1Graph builds the Figure 1(b) network used throughout the metapath
// tests: Zoe authors five papers (two at ICDE, three at KDD); Liam
// coauthors two of them; Ava coauthors one plus an extra paper with Liam at
// KDD.
func fig1Graph(t testing.TB) *hin.Graph {
	t.Helper()
	s := hin.MustSchema("author", "paper", "venue", "term")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	tm, _ := s.TypeByName("term")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	s.AllowLink(p, tm)
	b := hin.NewBuilder(s)
	add := func(t hin.TypeID, n string) hin.VertexID { return b.MustAddVertex(t, n) }
	ava, liam, zoe := add(a, "Ava"), add(a, "Liam"), add(a, "Zoe")
	add(a, "Hermit") // isolated author: zero visibility under any path
	icde, kdd := add(v, "ICDE"), add(v, "KDD")
	var papers []hin.VertexID
	for i := 1; i <= 6; i++ {
		papers = append(papers, add(p, fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < 5; i++ {
		b.MustAddEdge(papers[i], zoe)
	}
	b.MustAddEdge(papers[0], icde)
	b.MustAddEdge(papers[1], icde)
	b.MustAddEdge(papers[2], kdd)
	b.MustAddEdge(papers[3], kdd)
	b.MustAddEdge(papers[4], kdd)
	b.MustAddEdge(papers[0], liam)
	b.MustAddEdge(papers[1], liam)
	b.MustAddEdge(papers[2], ava)
	b.MustAddEdge(papers[5], ava)
	b.MustAddEdge(papers[5], liam)
	b.MustAddEdge(papers[5], kdd)
	// Terms so that Q2/Q3-style queries have something to chew on.
	dm, db := add(tm, "mining"), add(tm, "database")
	b.MustAddEdge(papers[0], dm)
	b.MustAddEdge(papers[1], db)
	b.MustAddEdge(papers[2], dm)
	b.MustAddEdge(papers[5], db)
	return b.Build()
}

func TestExecuteBasicNetOut(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	res, err := e.Execute(`FIND OUTLIERS
FROM author{"Zoe"}.paper.author
JUDGED BY author.paper.venue
TOP 10;`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.CandidateCount != 3 || res.ReferenceCount != 3 {
		t.Fatalf("set sizes = %d/%d", res.CandidateCount, res.ReferenceCount)
	}
	// Hand-computed: Φ_APV(Zoe)=[ICDE:2,KDD:3], Φ(Liam)=[ICDE:2,KDD:1],
	// Φ(Ava)=[KDD:2]; S=[ICDE:4,KDD:6]; Ω(Zoe)=26/13=2, Ω(Liam)=14/5=2.8,
	// Ω(Ava)=12/4=3.
	wantOrder := []string{"Zoe", "Liam", "Ava"}
	wantScore := []float64{2, 2.8, 3}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %+v", res.Entries)
	}
	for i, e := range res.Entries {
		if e.Name != wantOrder[i] || math.Abs(e.Score-wantScore[i]) > 1e-12 {
			t.Errorf("entry %d = %s %.3f, want %s %.3f", i, e.Name, e.Score, wantOrder[i], wantScore[i])
		}
	}
	if res.Timing.Total <= 0 {
		t.Error("Total timing not recorded")
	}
}

func TestExecuteComparedTo(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	// Candidates: Zoe's coauthor set; reference: KDD authors only.
	res, err := e.Execute(`FIND OUTLIERS
FROM author{"Zoe"}.paper.author
COMPARED TO venue{"KDD"}.paper.author
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.ReferenceCount != 3 { // Zoe, Ava, Liam all have KDD papers
		t.Fatalf("ReferenceCount = %d", res.ReferenceCount)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %+v", res.Entries)
	}
}

func TestExecuteTopKTruncation(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	res, err := e.Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue TOP 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Name != "Zoe" {
		t.Fatalf("entries = %+v", res.Entries)
	}
}

func TestExecuteSkipsZeroVisibility(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	// All authors, including the isolated Hermit.
	res, err := e.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount != 4 {
		t.Fatalf("CandidateCount = %d", res.CandidateCount)
	}
	if len(res.Skipped) != 1 {
		t.Fatalf("Skipped = %v", res.Skipped)
	}
	if g.Name(res.Skipped[0]) != "Hermit" {
		t.Fatalf("skipped vertex = %s", g.Name(res.Skipped[0]))
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %+v", res.Entries)
	}
}

func TestExecuteMultiFeatureWeights(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	single, err := e.Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.author;`)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := e.Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author
JUDGED BY author.paper.venue : 3.0, author.paper.author;`)
	if err != nil {
		t.Fatal(err)
	}
	// The combined score is the weighted average of the per-path scores.
	scoreOf := func(r *Result, name string) float64 {
		for _, e := range r.Entries {
			if e.Name == name {
				return e.Score
			}
		}
		t.Fatalf("%s missing from %+v", name, r.Entries)
		return 0
	}
	for _, name := range []string{"Ava", "Liam", "Zoe"} {
		want := (3*scoreOf(single, name) + scoreOf(other, name)) / 4
		if got := scoreOf(combined, name); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s combined = %g, want %g", name, got, want)
		}
	}
}

func TestExecuteSetOperators(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	check := func(src string, wantNames ...string) {
		t.Helper()
		q := fmt.Sprintf(`FIND OUTLIERS FROM %s JUDGED BY author.paper.venue;`, src)
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("Execute(%s): %v", src, err)
		}
		var got []string
		for _, en := range res.Entries {
			got = append(got, en.Name)
		}
		for _, v := range res.Skipped {
			got = append(got, g.Name(v))
		}
		if len(got) != len(wantNames) {
			t.Fatalf("%s -> %v, want %v", src, got, wantNames)
		}
		want := map[string]bool{}
		for _, n := range wantNames {
			want[n] = true
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("%s -> unexpected %s (got %v)", src, n, got)
			}
		}
	}
	check(`venue{"ICDE"}.paper.author UNION venue{"KDD"}.paper.author`, "Ava", "Liam", "Zoe")
	check(`venue{"ICDE"}.paper.author INTERSECT venue{"KDD"}.paper.author`, "Liam", "Zoe")
	check(`venue{"KDD"}.paper.author EXCEPT venue{"ICDE"}.paper.author`, "Ava")
	check(`author EXCEPT author{"Hermit"}`, "Ava", "Liam", "Zoe")
}

func TestExecuteWhereCount(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	// Authors with at least 3 papers: only Zoe (5) and Liam (3).
	res, err := e.Execute(`FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) >= 3
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount != 2 {
		t.Fatalf("CandidateCount = %d, want 2", res.CandidateCount)
	}
	// Compound condition with OR and NOT.
	res, err = e.Execute(`FIND OUTLIERS FROM author AS A
WHERE COUNT(A.paper) >= 3 OR NOT COUNT(A.paper.venue) != 1
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	// Zoe(5 papers), Liam(3), plus Ava (venues = {KDD} -> count 1).
	if res.CandidateCount != 3 {
		t.Fatalf("CandidateCount = %d, want 3", res.CandidateCount)
	}
	// AND short-circuit path.
	res, err = e.Execute(`FIND OUTLIERS FROM author AS A
WHERE COUNT(A.paper) >= 3 AND COUNT(A.paper.venue) = 2
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateCount != 2 { // Zoe and Liam both span ICDE+KDD
		t.Fatalf("CandidateCount = %d, want 2", res.CandidateCount)
	}
}

func TestExecuteErrors(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	cases := []string{
		`FIND OUTLIERS FROM author{"Nobody"}.paper.author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM person{"X"} JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY venue.paper.author;`,
		`syntactically wrong`,
	}
	for _, src := range cases {
		if _, err := e.Execute(src); err == nil {
			t.Errorf("Execute(%q) should fail", src)
		}
	}
	if _, err := e.CandidateSet(`FIND OUTLIERS FROM author{"Nobody"}.paper.author JUDGED BY author.paper.venue;`); err == nil {
		t.Error("CandidateSet with missing vertex should fail")
	}
}

func TestExecuteEmptyCandidateSet(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	res, err := e.Execute(`FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 100
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatalf("empty candidate set should not error: %v", err)
	}
	if res.CandidateCount != 0 || len(res.Entries) != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCandidateSet(t *testing.T) {
	g := fig1Graph(t)
	e := NewEngine(g)
	set, err := e.CandidateSet(`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("set = %v", set)
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Fatal("set not sorted")
		}
	}
}

// Table 2 executed end-to-end through the engine over an actual graph.
func TestTable2EndToEnd(t *testing.T) {
	s := hin.MustSchema("author", "paper", "venue")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	b := hin.NewBuilder(s)
	venues := map[string]hin.VertexID{}
	for _, name := range []string{"VLDB", "KDD", "STOC", "SIGGRAPH"} {
		venues[name] = b.MustAddVertex(v, name)
	}
	paperSeq := 0
	addAuthor := func(name string, counts map[string]int) {
		au := b.MustAddVertex(a, name)
		for ven, n := range counts {
			for i := 0; i < n; i++ {
				paperSeq++
				pp := b.MustAddVertex(p, fmt.Sprintf("paper%d", paperSeq))
				b.MustAddEdge(pp, au)
				b.MustAddEdge(pp, venues[ven])
			}
		}
	}
	refRecord := map[string]int{"VLDB": 10, "KDD": 10, "STOC": 1, "SIGGRAPH": 1}
	refNames := make([]string, 100)
	for i := range refNames {
		refNames[i] = fmt.Sprintf("Ref%03d", i)
		addAuthor(refNames[i], refRecord)
	}
	addAuthor("Sarah", refRecord)
	addAuthor("Rob", map[string]int{"KDD": 1, "STOC": 20, "SIGGRAPH": 20})
	addAuthor("Lucy", map[string]int{"KDD": 5, "STOC": 10, "SIGGRAPH": 10})
	addAuthor("Joe", map[string]int{"SIGGRAPH": 2})
	addAuthor("Emma", map[string]int{"SIGGRAPH": 30})
	g := b.Build()

	quotedRefs := make([]string, len(refNames))
	for i, n := range refNames {
		quotedRefs[i] = fmt.Sprintf("%q", n)
	}
	src := fmt.Sprintf(`FIND OUTLIERS
FROM author{"Sarah", "Rob", "Lucy", "Joe", "Emma"}
COMPARED TO author{%s}
JUDGED BY author.paper.venue;`, strings.Join(quotedRefs, ", "))

	want := map[Measure]map[string]float64{
		MeasureNetOut:  {"Sarah": 100, "Rob": 6.24, "Lucy": 31.11, "Joe": 50, "Emma": 3.33},
		MeasurePathSim: {"Sarah": 100, "Rob": 9.97, "Lucy": 32.79, "Joe": 1.94, "Emma": 5.44},
		MeasureCosSim:  {"Sarah": 100, "Rob": 12.43, "Lucy": 31.11 + 1.72, "Joe": 7.04, "Emma": 7.04},
	}
	want[MeasureCosSim]["Lucy"] = 32.83
	for m, exp := range want {
		e := NewEngine(g, WithMeasure(m))
		res, err := e.Execute(src)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := map[string]float64{}
		for _, en := range res.Entries {
			got[en.Name] = en.Score
		}
		for name, w := range exp {
			if math.Abs(got[name]-w) > 0.005 {
				t.Errorf("%s(%s) = %.4f, want %.2f", m, name, got[name], w)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Strategy equivalence property tests

func randomBibGraph(r *rand.Rand) *hin.Graph {
	s := hin.MustSchema("author", "paper", "venue", "term")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	v, _ := s.TypeByName("venue")
	tm, _ := s.TypeByName("term")
	s.AllowLink(p, a)
	s.AllowLink(p, v)
	s.AllowLink(p, tm)
	b := hin.NewBuilder(s)
	nA, nV, nT, nP := 5+r.Intn(10), 3+r.Intn(4), 4+r.Intn(6), 10+r.Intn(20)
	var authors, venues, terms []hin.VertexID
	for i := 0; i < nA; i++ {
		authors = append(authors, b.MustAddVertex(a, fmt.Sprintf("A%d", i)))
	}
	for i := 0; i < nV; i++ {
		venues = append(venues, b.MustAddVertex(v, fmt.Sprintf("V%d", i)))
	}
	for i := 0; i < nT; i++ {
		terms = append(terms, b.MustAddVertex(tm, fmt.Sprintf("T%d", i)))
	}
	for i := 0; i < nP; i++ {
		pp := b.MustAddVertex(p, fmt.Sprintf("P%d", i))
		for j := 0; j <= r.Intn(3); j++ {
			b.MustAddEdge(pp, authors[r.Intn(nA)])
		}
		b.MustAddEdge(pp, venues[r.Intn(nV)])
		for j := 0; j <= r.Intn(4); j++ {
			b.MustAddEdge(pp, terms[r.Intn(nT)])
		}
	}
	return b.Build()
}

func randomQueries(r *rand.Rand, g *hin.Graph) []string {
	features := []string{
		"author.paper.venue",
		"author.paper.author",
		"author.paper.term",
		"author.paper.venue.paper.author", // 4 hops: even-length decomposition
		"author.paper.term.paper.venue",
		"author.paper",                         // 1 hop: below chunk size
		"author.paper.venue.paper",             // 3 hops: odd-length single-hop tail
		"author.paper.author.paper.term.paper", // 5 hops: two chunks + tail
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)
	var out []string
	for i := 0; i < 3; i++ {
		anchor := g.Name(authors[r.Intn(len(authors))])
		f := features[r.Intn(len(features))]
		src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY %s TOP 10;`, anchor, f)
		out = append(out, src)
	}
	return out
}

// All three strategies must produce identical rankings and scores, bit for
// bit (Section 6.2's optimizations are exact, not approximate) — on a
// bibliographic graph, and on a multigraph whose 4-hop counts leave 2⁵³
// (multiplicities up to 2³⁰), where PM/SPM's chunks fall back to traversal.
func TestQuickStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		queries := randomQueries(r, g)
		multi := randomHIN(r, 1<<30)
		for _, in := range []struct {
			g       *hin.Graph
			queries []string
		}{
			{g, queries},
			{multi, []string{`FIND OUTLIERS FROM t0 JUDGED BY t0.t1.t2.t1.t0 TOP 10;`}},
		} {
			if !strategiesAgree(t, in.g, in.queries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// strategiesAgree runs the queries on g under Baseline, PM and SPM (the
// vertices in 30 % of the candidate sets) and reports whether every result is
// Baseline's.
func strategiesAgree(t *testing.T, g *hin.Graph, queries []string) bool {
	base := NewEngine(g)
	pm := NewEngine(g, WithMaterializer(NewPM(g)))
	spmMat, err := NewSPM(g, queries, SPMConfig{Threshold: 0.3})
	if err != nil {
		t.Logf("NewSPM: %v", err)
		return false
	}
	spm := NewEngine(g, WithMaterializer(spmMat))
	for _, src := range queries {
		rb, err := base.Execute(src)
		if err != nil {
			t.Logf("baseline %q: %v", src, err)
			return false
		}
		for _, e2 := range []*Engine{pm, spm} {
			ro, err := e2.Execute(src)
			if err != nil {
				t.Logf("%s %q: %v", e2.mat.Strategy(), src, err)
				return false
			}
			if !resultsEqual(rb, ro) {
				t.Logf("%s diverges on %q:\nbase %+v\nother %+v",
					e2.mat.Strategy(), src, rb.Entries, ro.Entries)
				return false
			}
		}
	}
	return true
}

func resultsEqual(a, b *Result) bool {
	if len(a.Entries) != len(b.Entries) || len(a.Skipped) != len(b.Skipped) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Vertex != b.Entries[i].Vertex ||
			math.Float64bits(a.Entries[i].Score) != math.Float64bits(b.Entries[i].Score) {
			return false
		}
	}
	for i := range a.Skipped {
		if a.Skipped[i] != b.Skipped[i] {
			return false
		}
	}
	return true
}

// All measures agree between baseline and PM (the strategies change only
// how Φ is materialized, never the scores).
func TestQuickMeasuresUnderPM(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		src := randomQueries(r, g)[0]
		for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
			rb, err1 := NewEngine(g, WithMeasure(m)).Execute(src)
			rp, err2 := NewEngine(g, WithMeasure(m), WithMaterializer(NewPM(g))).Execute(src)
			if err1 != nil || err2 != nil {
				return false
			}
			if !resultsEqual(rb, rp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializerBookkeeping(t *testing.T) {
	g := fig1Graph(t)
	base := NewBaseline(g)
	if base.Strategy() != StrategyBaseline || base.IndexBytes() != 0 {
		t.Fatal("baseline metadata wrong")
	}
	pm := NewPM(g)
	if pm.Strategy() != StrategyPM {
		t.Fatal("PM strategy wrong")
	}
	if pm.IndexBytes() <= 0 {
		t.Fatal("PM index should have positive size")
	}
	spm := NewSPMVertices(g, nil)
	if spm.Strategy() != StrategySPM || spm.IndexBytes() != 0 {
		t.Fatal("empty SPM should have empty index")
	}
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	spm2 := NewSPMVertices(g, []hin.VertexID{zoe})
	if spm2.IndexBytes() <= 0 || spm2.IndexBytes() >= pm.IndexBytes() {
		t.Fatalf("SPM index size %d should be positive and below PM's %d",
			spm2.IndexBytes(), pm.IndexBytes())
	}

	// PM answers a length-2 query purely from the index.
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	before := pm.Stats()
	if _, err := pm.NeighborVector(p, zoe); err != nil {
		t.Fatal(err)
	}
	d := pm.Stats().Sub(before)
	if d.IndexedVectors != 1 || d.TraversedVectors != 0 {
		t.Fatalf("PM stats = %+v", d)
	}

	// Baseline traverses.
	before = base.Stats()
	if _, err := base.NeighborVector(p, zoe); err != nil {
		t.Fatal(err)
	}
	d = base.Stats().Sub(before)
	if d.TraversedVectors != 1 || d.IndexedVectors != 0 {
		t.Fatalf("baseline stats = %+v", d)
	}
}

// TestMaterializerLoadAllocs gates what one load allocates, on
// BenchmarkNeighborVector's graph, hub and SPM (Q1's vertices): a Baseline
// load allocates what the bare traverser's walk does, its result, and a
// 4-hop PM or SPM load stays at its measured count (2 and 18 allocations).
func TestMaterializerLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race allocates on its own account")
	}
	cfg := gen.Scaled(1)
	cfg.Seed = 1
	g, man, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, err := RandomVertexNames(g, "author", 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	spm, err := NewSPM(g, BuildQuerySet(PaperTemplates()[0], names), SPMConfig{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	hub, _ := g.VertexByName(mustType(t, g, "author"), man.Hub)
	allocs := func(load func(metapath.Path, hin.VertexID) (sparse.Vector, error), p metapath.Path) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := load(p, hub); err != nil {
				t.Fatal(err)
			}
		})
	}
	tr, base := metapath.NewTraverser(g), NewBaseline(g)
	for _, dotted := range []string{"author.paper.venue", "author.paper.venue.paper", "author.paper.author.paper.venue"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := allocs(base.NeighborVector, p), allocs(tr.NeighborVector, p); got != want {
			t.Errorf("Baseline %s: %v allocations per load, the traverser's walk %v", dotted, got, want)
		}
	}
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.author.paper.venue")
	for _, c := range []struct {
		mat *Materializer
		max float64
	}{{NewPM(g), 2}, {spm, 18}} {
		if n := allocs(c.mat.NeighborVector, p); n > c.max {
			t.Errorf("%s 4-hop load: %v allocations, ceiling %v", c.mat.Strategy(), n, c.max)
		}
	}
}

func TestMaterializerErrors(t *testing.T) {
	g := fig1Graph(t)
	p, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	for _, mat := range []*Materializer{NewBaseline(g), NewPM(g), NewSPMVertices(g, nil)} {
		if _, err := mat.NeighborVector(metapath.Path{}, 0); err == nil {
			t.Errorf("%s: zero path should fail", mat.Strategy())
		}
		if _, err := mat.NeighborVector(p, hin.VertexID(9999)); err == nil {
			t.Errorf("%s: bad vertex should fail", mat.Strategy())
		}
		v, _ := g.VertexByName(mustType(t, g, "venue"), "KDD")
		if _, err := mat.NeighborVector(p, v); err == nil {
			t.Errorf("%s: type mismatch should fail", mat.Strategy())
		}
	}
	if _, err := NewSPM(g, []string{"bogus"}, SPMConfig{Threshold: 0.5}); err == nil {
		t.Error("SPM with unparsable init query should fail")
	}
	if _, err := NewSPM(g, nil, SPMConfig{Threshold: -1}); err == nil {
		t.Error("SPM with bad threshold should fail")
	}
}

func mustType(t *testing.T, g *hin.Graph, name string) hin.TypeID {
	t.Helper()
	id, ok := g.Schema().TypeByName(name)
	if !ok {
		t.Fatalf("type %q missing", name)
	}
	return id
}

func TestSPMFromInitQueries(t *testing.T) {
	g := fig1Graph(t)
	// Zoe appears in the candidate set of both queries; threshold 1.0 keeps
	// only vertices present in every candidate set.
	queries := []string{
		`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"Liam"}.paper.author JUDGED BY author.paper.venue;`,
	}
	mat, err := NewSPM(g, queries, SPMConfig{Threshold: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if mat.IndexBytes() <= 0 {
		t.Fatal("SPM should have indexed the common coauthors")
	}
	full, err := NewSPM(g, queries, SPMConfig{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if full.IndexBytes() < mat.IndexBytes() {
		t.Fatalf("threshold 0 index (%d) should be at least as large as threshold 1 (%d)",
			full.IndexBytes(), mat.IndexBytes())
	}
}

func TestTemplatesAndQuerySets(t *testing.T) {
	g := fig1Graph(t)
	tpls := PaperTemplates()
	if len(tpls) != 3 || tpls[0].Name != "Q1" {
		t.Fatalf("templates = %+v", tpls)
	}
	names, err := RandomVertexNames(g, "author", 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
	// Determinism.
	names2, _ := RandomVertexNames(g, "author", 5, 42)
	for i := range names {
		if names[i] != names2[i] {
			t.Fatal("RandomVertexNames not deterministic")
		}
	}
	if _, err := RandomVertexNames(g, "nosuch", 5, 1); err == nil {
		t.Error("unknown type should fail")
	}
	e := NewEngine(g)
	for _, tpl := range tpls {
		for _, src := range BuildQuerySet(tpl, names) {
			if _, err := e.Execute(src); err != nil {
				t.Errorf("%s query %q failed: %v", tpl.Name, src, err)
			}
		}
	}
	// Names with quotes and backslashes survive substitution.
	weird := Template{Name: "W", Text: `FIND OUTLIERS FROM author{}.paper.author JUDGED BY author.paper.venue;`}
	src := weird.Instantiate(`O'Brien "The \ Great"`)
	q := strings.Count(src, `\"`)
	if q != 2 {
		t.Fatalf("escaping wrong: %s", src)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyBaseline.String() != "Baseline" || StrategyPM.String() != "PM" ||
		StrategySPM.String() != "SPM" || Strategy(9).String() == "" {
		t.Error("Strategy.String misbehaves")
	}
}

// NetOut is invariant under graph relabeling: building the same logical
// network with a different vertex insertion order must produce identical
// rankings by name. This pins down that no code path depends on vertex ID
// order beyond tie-breaking (ties are broken by ID, so we use a fixture
// without score ties).
func TestQuickRelabelingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		type paper struct {
			venue   string
			authors []string
		}
		nA, nV := 4+r.Intn(5), 2+r.Intn(3)
		var papers []paper
		for i := 0; i < 12+r.Intn(10); i++ {
			p := paper{venue: fmt.Sprintf("V%d", r.Intn(nV))}
			for k := 0; k <= r.Intn(3); k++ {
				p.authors = append(p.authors, fmt.Sprintf("A%d", r.Intn(nA)))
			}
			papers = append(papers, p)
		}
		build := func(order []int) *hin.Graph {
			s := hin.MustSchema("author", "paper", "venue")
			a, _ := s.TypeByName("author")
			pt, _ := s.TypeByName("paper")
			v, _ := s.TypeByName("venue")
			s.AllowLink(pt, a)
			s.AllowLink(pt, v)
			b := hin.NewBuilder(s)
			for _, i := range order {
				p := papers[i]
				pv := b.MustAddVertex(pt, fmt.Sprintf("P%d", i))
				vv := b.MustAddVertex(v, p.venue)
				b.MustAddEdge(pv, vv)
				for _, au := range p.authors {
					av := b.MustAddVertex(a, au)
					b.MustAddEdge(pv, av)
				}
			}
			return b.Build()
		}
		fwd := make([]int, len(papers))
		for i := range fwd {
			fwd[i] = i
		}
		shuffled := append([]int(nil), fwd...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		g1, g2 := build(fwd), build(shuffled)
		src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`
		r1, err1 := NewEngine(g1).Execute(src)
		r2, err2 := NewEngine(g2).Execute(src)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Entries) != len(r2.Entries) {
			return false
		}
		scores1 := map[string]float64{}
		for _, e := range r1.Entries {
			scores1[e.Name] = e.Score
		}
		for _, e := range r2.Entries {
			if math.Abs(scores1[e.Name]-e.Score) > 1e-9 {
				t.Logf("%s: %g vs %g", e.Name, scores1[e.Name], e.Score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
