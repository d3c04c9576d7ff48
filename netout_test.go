package netout_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"netout"
	"netout/internal/core"
	"netout/internal/gen"
	"netout/internal/lof"
)

// buildQuickstartGraph builds the small bibliographic network the README's
// quickstart uses.
func buildQuickstartGraph(t testing.TB) *netout.Graph {
	t.Helper()
	schema := netout.MustSchema("author", "paper", "venue", "term")
	author, _ := schema.TypeByName("author")
	paper, _ := schema.TypeByName("paper")
	venue, _ := schema.TypeByName("venue")
	term, _ := schema.TypeByName("term")
	schema.AllowLink(paper, author)
	schema.AllowLink(paper, venue)
	schema.AllowLink(paper, term)

	b := netout.NewBuilder(schema)
	kdd := b.MustAddVertex(venue, "KDD")
	sigmod := b.MustAddVertex(venue, "SIGMOD")
	siggraph := b.MustAddVertex(venue, "SIGGRAPH")
	authors := map[string]netout.VertexID{}
	for _, n := range []string{"Ann", "Ben", "Cai", "Dee", "Eve"} {
		authors[n] = b.MustAddVertex(author, n)
	}
	pid := 0
	addPaper := func(v netout.VertexID, names ...string) {
		pid++
		p := b.MustAddVertex(paper, fmt.Sprintf("p%02d", pid))
		b.MustAddEdge(p, v)
		for _, n := range names {
			b.MustAddEdge(p, authors[n])
		}
	}
	// Ann, Ben, Cai and Dee publish at KDD/SIGMOD together; Eve coauthors
	// once with Ann but otherwise publishes alone at SIGGRAPH.
	addPaper(kdd, "Ann", "Ben")
	addPaper(kdd, "Ann", "Cai")
	addPaper(kdd, "Ben", "Dee")
	addPaper(sigmod, "Ann", "Dee")
	addPaper(sigmod, "Cai", "Ben")
	addPaper(kdd, "Ann", "Eve")
	addPaper(siggraph, "Eve")
	addPaper(siggraph, "Eve")
	addPaper(siggraph, "Eve")
	return b.Build()
}

func TestQuickstartFlow(t *testing.T) {
	g := buildQuickstartGraph(t)
	eng := netout.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS
FROM author{"Ann"}.paper.author
JUDGED BY author.paper.venue
TOP 3;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no entries")
	}
	if res.Entries[0].Name != "Eve" {
		t.Fatalf("top outlier = %s, want Eve (ranked: %+v)", res.Entries[0].Name, res.Entries)
	}
}

func TestFacadeMeasuresAndStrategies(t *testing.T) {
	g := buildQuickstartGraph(t)
	query := `FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue;`
	base, err := netout.NewEngine(g).Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	pmEng := netout.NewEngine(g, netout.WithMaterializer(netout.NewPM(g)))
	pm, err := pmEng.Execute(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Entries) != len(pm.Entries) {
		t.Fatal("PM result size differs")
	}
	for i := range base.Entries {
		if base.Entries[i].Vertex != pm.Entries[i].Vertex ||
			math.Abs(base.Entries[i].Score-pm.Entries[i].Score) > 1e-9 {
			t.Fatalf("PM diverges at %d: %+v vs %+v", i, base.Entries[i], pm.Entries[i])
		}
	}
	spmMat, err := netout.NewSPM(g, []string{query}, netout.SPMConfig{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if spmMat.Strategy() != core.StrategySPM || spmMat.IndexBytes() <= 0 {
		t.Fatal("SPM index missing")
	}
	for _, m := range []netout.Measure{netout.MeasurePathSim, netout.MeasureCosSim} {
		if _, err := netout.NewEngine(g, netout.WithMeasure(m)).Execute(query); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestFacadeParseHelpers(t *testing.T) {
	g := buildQuickstartGraph(t)
	q, err := netout.ParseQuery(`FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue TOP 2;`)
	if err != nil {
		t.Fatal(err)
	}
	et, err := netout.ValidateQuery(q, g.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if g.Schema().TypeName(et) != "author" {
		t.Fatalf("element type = %v", et)
	}
	p, err := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 2 {
		t.Fatalf("hops = %d", p.Hops())
	}
	p2, err := netout.NewMetaPath(g.Schema(), "author", "paper", "venue")
	if err != nil || p2.Key() != p.Key() {
		t.Fatal("NewMetaPath mismatch")
	}
	m, err := netout.ParseMeasure("pathsim")
	if err != nil || m != netout.MeasurePathSim {
		t.Fatal("ParseMeasure")
	}
	tr := netout.NewTraverser(g)
	author, _ := g.Schema().TypeByName("author")
	ann, _ := g.VertexByName(author, "Ann")
	vec, err := tr.NeighborVector(p, ann)
	if err != nil || vec.IsZero() {
		t.Fatalf("NeighborVector: %v %v", vec, err)
	}
	if s := core.NormalizedConnectivity(vec, vec); s != 1 {
		t.Fatalf("σ(v,v) = %g", s)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := buildQuickstartGraph(t)
	tr := netout.NewTraverser(g)
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	author, _ := g.Schema().TypeByName("author")
	var points []netout.Vector
	for _, v := range g.VerticesOfType(author) {
		vec, err := tr.NeighborVector(p, v)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, vec)
	}
	scores, err := netout.LOFScores(points, netout.LOFOptions{K: 2, Distance: netout.CosineDistance})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(points) {
		t.Fatal("LOF length mismatch")
	}
	if _, err := netout.KNNOutlierScores(points, 2); err != nil {
		t.Fatal(err)
	}
	if d := lof.Euclidean(points[0], points[0]); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestFacadeGenerateAndIO(t *testing.T) {
	cfg := gen.Default()
	cfg.Papers = 200
	cfg.AuthorsPerCommunity = 25
	cfg.TermsPerCommunity = 25
	g, man, err := netout.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if man.Hub == "" {
		t.Fatal("manifest hub missing")
	}
	path := filepath.Join(t.TempDir(), "net.tsv")
	if err := netout.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := netout.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	if sc := netout.ScaledGenConfig(2); sc.Papers <= cfg.Papers {
		t.Fatal("ScaledGenConfig did not scale")
	}
}

func TestFacadeQueryWorkloads(t *testing.T) {
	g := buildQuickstartGraph(t)
	names, err := netout.RandomVertexNames(g, "author", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	tpls := netout.PaperTemplates()
	qs := netout.BuildQuerySet(tpls[0], names)
	if len(qs) != 4 {
		t.Fatalf("query set = %v", qs)
	}
	eng := netout.NewEngine(g)
	for _, src := range qs {
		if _, err := eng.Execute(src); err != nil {
			t.Fatalf("workload query %q: %v", src, err)
		}
	}
	// ScoreVectors through the façade.
	vecs := []netout.Vector{}
	tr := netout.NewTraverser(g)
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	author, _ := g.Schema().TypeByName("author")
	for _, v := range g.VerticesOfType(author) {
		vec, _ := tr.NeighborVector(p, v)
		vecs = append(vecs, vec)
	}
	scores := netout.ScoreVectors(netout.MeasureNetOut, vecs, vecs)
	if len(scores) != len(vecs) {
		t.Fatal("ScoreVectors length mismatch")
	}
}

// Explain's and SuggestFeatures' refusals are the caller's mistakes and say
// so: a missing name is NOT_FOUND, the rest INVALID_ARGUMENT, never INTERNAL.
func TestExplainAndSuggestErrorsAreTyped(t *testing.T) {
	g := buildQuickstartGraph(t)
	eng := netout.NewEngine(g)
	const q = `FIND OUTLIERS FROM author{"Eve"}.paper.author JUDGED BY author.paper.venue;`
	explain := func(e *netout.Engine, name string) func() error {
		return func() error { _, err := e.Explain(q, name, 0); return err }
	}
	for _, tc := range []struct {
		call func() error
		code netout.ErrorCode
		msg  string
	}{
		{explain(eng, "Zed"), netout.CodeNotFound, `core: no author named "Zed"`},
		{explain(eng, "Ben"), netout.CodeInvalidArgument, `core: "Ben" is not in the query's candidate set`},
		{explain(netout.NewEngine(g, netout.WithMeasure(netout.MeasurePathSim)), "Eve"), netout.CodeInvalidArgument,
			"core: explanations are defined for the NetOut measure (engine uses PathSim)"},
		{func() error { _, err := eng.SuggestFeatures(q, 2); return err }, netout.CodeInvalidArgument,
			"core: candidate set too small (2) to rank feature paths"},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("no error, want %s %q", tc.code, tc.msg)
			continue
		}
		if got := netout.ErrorCodeOf(err); got != tc.code || err.Error() != tc.msg {
			t.Errorf("%q: code %s, want %s (message %q)", err, got, tc.code, tc.msg)
		}
	}
}
