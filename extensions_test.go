package netout_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"netout"
	"netout/internal/aminer"
	"netout/internal/core"
	"netout/internal/eval"
	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/walk"
)

func TestFacadeCombination(t *testing.T) {
	g := buildQuickstartGraph(t)
	src := `FIND OUTLIERS FROM author{"Ann"}.paper.author
JUDGED BY author.paper.venue, author.paper.author : 2.0;`
	c, err := netout.ParseCombination("concat")
	if err != nil || c != netout.CombineConcat {
		t.Fatal("ParseCombination")
	}
	avg, err := netout.NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := netout.NewEngine(g, netout.WithCombination(netout.CombineConcat)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg.Entries) != len(cc.Entries) {
		t.Fatal("entry counts differ")
	}
	// Modes are different formulas; scores generally differ.
	same := true
	for i := range avg.Entries {
		if math.Abs(avg.Entries[i].Score-cc.Entries[i].Score) > 1e-9 {
			same = false
		}
	}
	if same {
		t.Log("note: combination modes coincided on this fixture (possible but unusual)")
	}
}

func TestFacadeProgressive(t *testing.T) {
	g := buildQuickstartGraph(t)
	src := `FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue TOP 2;`
	snapshots := 0
	res, err := netout.NewEngine(g).ExecuteProgressive(src, netout.ProgressiveOptions{
		ChunkSize: 2,
		OnSnapshot: func(s netout.ProgressiveSnapshot) bool {
			snapshots++
			if len(s.TopK) > 2 {
				t.Errorf("snapshot TopK too long: %d", len(s.TopK))
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 || len(res.Entries) == 0 {
		t.Fatal("progressive produced nothing")
	}
	exact, _ := netout.NewEngine(g).Execute(src)
	if res.Entries[0].Name != exact.Entries[0].Name {
		t.Fatalf("progressive final top (%s) != exact top (%s)", res.Entries[0].Name, exact.Entries[0].Name)
	}
}

func TestFacadeExplainAndSuggest(t *testing.T) {
	g := buildQuickstartGraph(t)
	src := `FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue;`
	eng := netout.NewEngine(g)
	x, err := eng.Explain(src, "Eve", 5)
	if err != nil {
		t.Fatal(err)
	}
	if x.Name != "Eve" || len(x.Paths) != 1 {
		t.Fatalf("explanation = %+v", x)
	}
	if !strings.Contains(x.Format(), "SIGGRAPH") {
		t.Errorf("Eve's explanation should mention SIGGRAPH:\n%s", x.Format())
	}
	sugs, err := eng.SuggestFeatures(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	if out := netout.FormatSuggestions(sugs, 3); out == "" {
		t.Fatal("FormatSuggestions empty")
	}
}

func TestFacadeBatch(t *testing.T) {
	g := buildQuickstartGraph(t)
	pm := netout.NewPM(g)
	view := core.NewView(pm)
	if view.Strategy() != core.StrategyPM {
		t.Fatal("view strategy wrong")
	}
	queries := []string{
		`FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"Eve"}.paper.author JUDGED BY author.paper.venue;`,
	}
	results := netout.ExecuteBatch(netout.NewEngine(g, netout.WithMaterializer(pm)), queries, netout.BatchOptions{Workers: 2})
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
	}
}

// The parser must never panic, whatever bytes it is fed.
func TestParserNeverPanics(t *testing.T) {
	base := `FIND OUTLIERS FROM author{"X"}.paper.author COMPARED TO venue{"Y"}.paper.author JUDGED BY author.paper.venue : 2.0 TOP 10;`
	mutate := func(r *rand.Rand, s string) string {
		b := []byte(s)
		switch r.Intn(4) {
		case 0: // delete a span
			if len(b) > 2 {
				i := r.Intn(len(b) - 1)
				j := i + 1 + r.Intn(len(b)-i-1)
				b = append(b[:i], b[j:]...)
			}
		case 1: // random byte flip
			if len(b) > 0 {
				b[r.Intn(len(b))] = byte(r.Intn(256))
			}
		case 2: // duplicate a span
			if len(b) > 2 {
				i := r.Intn(len(b) - 1)
				j := i + 1 + r.Intn(len(b)-i-1)
				b = append(b[:j:j], append(append([]byte{}, b[i:j]...), b[j:]...)...)
			}
		case 3: // insert random punctuation
			punct := `.;,:(){}"'<>=!`
			i := r.Intn(len(b) + 1)
			b = append(b[:i:i], append([]byte{punct[r.Intn(len(punct))]}, b[i:]...)...)
		}
		return string(b)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := base
		for k := 0; k <= r.Intn(6); k++ {
			s = mutate(r, s)
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("parser panicked on %q: %v", s, p)
			}
		}()
		_, _ = netout.ParseQuery(s) // errors are fine; panics are not
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The engine must never panic on arbitrary syntactically-valid queries over
// a real graph — unknown names and invalid paths must come back as errors.
func TestEngineRobustToArbitraryQueries(t *testing.T) {
	g := buildQuickstartGraph(t)
	eng := netout.NewEngine(g)
	types := []string{"author", "paper", "venue", "term", "bogus"}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		anchor := types[r.Intn(len(types))]
		var steps []string
		for k := 0; k <= r.Intn(3); k++ {
			steps = append(steps, types[r.Intn(len(types))])
		}
		feature := []string{types[r.Intn(len(types))], types[r.Intn(len(types))], types[r.Intn(len(types))]}
		src := fmt.Sprintf(`FIND OUTLIERS FROM %s{"Ann"}%s JUDGED BY %s TOP 3;`,
			anchor, dotJoin(steps), strings.Join(feature, "."))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("engine panicked on %q: %v", src, p)
				}
			}()
			_, _ = eng.Execute(src)
		}()
	}
}

func dotJoin(steps []string) string {
	if len(steps) == 0 {
		return ""
	}
	return "." + strings.Join(steps, ".")
}

func TestFacadeAminerAndCompare(t *testing.T) {
	dump := "#* Graph Outlier Mining\n#@ Ada;Bob\n#c KDD\n#index 1\n\n#* Fluid Rendering\n#@ Eve\n#c SIGGRAPH\n#index 2\n"
	recs, err := aminer.Parse(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Venue != "KDD" {
		t.Fatalf("records = %+v", recs)
	}
	g, err := aminer.Build(recs, aminer.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty graph")
	}
	if toks := aminer.Tokenize("The Graph of Mining", 3, true); len(toks) != 2 {
		t.Fatalf("TokenizeTitle = %v", toks)
	}
	if rep := g.StatsReport(); !strings.Contains(rep, "author->paper") {
		t.Fatalf("StatsReport = %q", rep)
	}

	// Compare two rankings from the quickstart graph.
	qg := buildQuickstartGraph(t)
	eng := netout.NewEngine(qg)
	a, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.author;`)
	if err != nil {
		t.Fatal(err)
	}
	if shared, jac := netout.OverlapAtK(a, b, 3); shared < 0 || jac < 0 || jac > 1 {
		t.Fatalf("overlap = %d/%g", shared, jac)
	}
	if _, err := netout.SpearmanRho(a, b); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCachedAndPersistence(t *testing.T) {
	g := buildQuickstartGraph(t)
	mat, err := netout.NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Strategy() != core.StrategyCached {
		t.Fatal("strategy wrong")
	}
	src := `FIND OUTLIERS FROM author{"Ann"}.paper.author JUDGED BY author.paper.venue;`
	eng := netout.NewEngine(g, netout.WithMaterializer(mat))
	if _, err := eng.Execute(src); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(src); err != nil {
		t.Fatal(err)
	}
	cs, ok := netout.CacheStatsOf(mat)
	if !ok || cs.Hits == 0 {
		t.Fatalf("cache stats = %+v ok=%v", cs, ok)
	}

	pm := netout.NewPM(g)
	path := filepath.Join(t.TempDir(), "idx.noix")
	if err := netout.SaveIndexFile(pm, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := netout.LoadIndexFile(g, path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := netout.NewEngine(g, netout.WithMaterializer(pm)).Execute(src)
	got, _ := netout.NewEngine(g, netout.WithMaterializer(loaded)).Execute(src)
	if len(want.Entries) != len(got.Entries) || want.Entries[0] != got.Entries[0] {
		t.Fatal("loaded index diverges")
	}

	h, err := core.NewHistogram([]float64{1, 2, 3, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 4 || !strings.Contains(h.Render(10), "scores") {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestFacadeRelAndKG(t *testing.T) {
	db := netout.NewRelDB()
	people, err := db.CreateTable(netout.RelTableDef{
		Name: "person", Key: "id",
		Columns: []netout.RelColumn{
			{Name: "id", Type: netout.RelInt},
			{Name: "name", Type: netout.RelText},
			{Name: "boss_id", Type: netout.RelInt, References: "person"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	people.MustInsert(netout.RelRow{"id": int64(1), "name": "root", "boss_id": nil})
	people.MustInsert(netout.RelRow{"id": int64(2), "name": "leaf", "boss_id": int64(1)})
	g, err := netout.RelToHIN(db, netout.RelBridgeConfig{
		EntityTables: []netout.RelEntityTable{{Table: "person", NameColumn: "name"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := g.Schema().TypeByName("person")
	if g.NumVerticesOfType(pt) != 2 {
		t.Fatal("bridge lost vertices")
	}
}

// TestFacadeSurface exercises every remaining thin wrapper so the public
// surface is covered end to end.
func TestFacadeSurface(t *testing.T) {
	g := buildQuickstartGraph(t)

	// Materializer constructors.
	if netout.NewBaseline(g).Strategy() != core.StrategyBaseline {
		t.Error("NewBaseline wrong")
	}
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	if core.NewPMPaths(g, []netout.MetaPath{p}).IndexBytes() <= 0 {
		t.Error("NewPMPaths empty")
	}
	author, _ := g.Schema().TypeByName("author")
	ann, _ := g.VertexByName(author, "Ann")
	if core.NewSPMVertices(g, []netout.VertexID{ann}).IndexBytes() <= 0 {
		t.Error("NewSPMVertices empty")
	}

	// Index persistence through io.Writer/Reader.
	var buf bytes.Buffer
	pm := netout.NewPM(g)
	if err := core.SaveIndex(pm, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadIndex(g, bytes.NewReader(buf.Bytes()))
	if err != nil || loaded.IndexBytes() != pm.IndexBytes() {
		t.Fatalf("LoadIndex: %v", err)
	}

	// StopWhenStable through the façade.
	stops := 0
	_, err = netout.NewEngine(g).ExecuteProgressive(
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 2;`,
		netout.ProgressiveOptions{
			ChunkSize: 1,
			OnSnapshot: netout.StopWhenStable(2, 1, func(netout.ProgressiveSnapshot) bool {
				stops++
				return true
			}),
		})
	if err != nil || stops == 0 {
		t.Fatalf("StopWhenStable: %v (%d snapshots)", err, stops)
	}

	// Security generator.
	secCfg := gen.DefaultSecurityConfig()
	secCfg.HostsPerSubnet = 10
	sg, sman, err := gen.GenerateSecurity(secCfg)
	if err != nil || len(sman.Compromised) == 0 {
		t.Fatalf("GenerateSecurity: %v", err)
	}
	if sg.NumVertices() == 0 {
		t.Fatal("empty security graph")
	}

	// ArnetMiner from a file.
	aPath := filepath.Join(t.TempDir(), "dump.txt")
	if err := os.WriteFile(aPath, []byte("#* T\n#@ A\n#c V\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ag, err := netout.LoadAminer(aPath, aminer.BuildOptions{})
	if err != nil || ag.NumVertices() == 0 {
		t.Fatalf("LoadAminer: %v", err)
	}

	// Subgraphs and ego networks.
	ego, err := netout.EgoNetwork(g, []netout.VertexID{ann}, 2)
	if err != nil || len(ego) < 2 {
		t.Fatalf("EgoNetwork: %v", err)
	}
	sub, mapping, err := netout.InducedSubgraph(g, ego)
	if err != nil || sub.NumVertices() != len(ego) || mapping[ann] == hin.InvalidVertex {
		t.Fatalf("InducedSubgraph: %v", err)
	}

	// Random-walk measures.
	ppr, err := walk.PPR(g, ann, netout.PPROptions{})
	if err != nil || ppr.IsZero() {
		t.Fatalf("PPR: %v", err)
	}
	m, err := netout.SimRank(g, netout.SimRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scores := netout.SimRankOutlierScores(m, []netout.VertexID{ann}, []netout.VertexID{ann})
	if len(scores) != 1 || scores[0] != 1 {
		t.Fatalf("SimRankOutlierScores = %v", scores)
	}

	// Evaluation metric wrappers.
	ranked := []string{"p", "n1", "n2"}
	pos := map[string]bool{"p": true}
	if eval.PrecisionAtK(ranked, pos, 1) != 1 || eval.RecallAtK(ranked, pos, 1) != 1 ||
		eval.AveragePrecision(ranked, pos) != 1 {
		t.Error("eval wrappers wrong")
	}
	rep, err := netout.Evaluate("x", ranked, pos, 1)
	if err != nil || rep.AUC != 1 {
		t.Fatalf("Evaluate: %v", err)
	}
	if netout.FormatEvalReports([]netout.EvalReport{rep}) == "" {
		t.Error("FormatEvalReports empty")
	}
}

func TestFacadeMetaPathWalk(t *testing.T) {
	g := buildQuickstartGraph(t)
	author, _ := g.Schema().TypeByName("author")
	ann, _ := g.VertexByName(author, "Ann")
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	ppr, err := walk.PPRMetaPath(g, p, ann, netout.PPROptions{})
	if err != nil || ppr.IsZero() {
		t.Fatalf("PPRMetaPath: %v", err)
	}
	cands := g.VerticesOfType(author)
	scores, err := netout.PPRMetaPathOutlierScores(g, p, cands, cands, netout.PPROptions{})
	if err != nil || len(scores) != len(cands) {
		t.Fatalf("PPRMetaPathOutlierScores: %v", err)
	}
}
