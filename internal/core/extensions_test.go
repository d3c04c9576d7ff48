package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// ---------------------------------------------------------------------------
// Combination modes

func TestCombineConcatSingleFeatureMatchesAverage(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	avg, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewEngine(g, WithCombination(CombineConcat)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(avg, cc) {
		t.Fatalf("single-feature queries must agree:\n%+v\nvs\n%+v", avg.Entries, cc.Entries)
	}
}

func TestCombineConcatMultiFeature(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author
JUDGED BY author.paper.venue : 2.0, author.paper.author;`
	res, err := NewEngine(g, WithCombination(CombineConcat)).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %+v", res.Entries)
	}
	// Hand-check Zoe: concat vector is [2·Φ_v ⊕ Φ_a] with
	// Φ_v(Zoe)=[ICDE:2,KDD:3], Φ_a(Zoe)=[Ava:1,Liam:2,Zoe:5].
	// Visibility = 4·13 + 30 = 82.
	// S_v = [ICDE:4, KDD:6]; S_a = Σ Φ_a = [Ava:(2+1+1), Liam:(1+5+2)... ]
	// — computed programmatically below instead of by hand:
	tr := NewBaseline(g)
	pv, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := metapath.ParseDotted(g.Schema(), "author.paper.author")
	if err != nil {
		t.Fatal(err)
	}
	authorT, _ := g.Schema().TypeByName("author")
	var names = []string{"Ava", "Liam", "Zoe"}
	var vvecs, avecs []sparse.Vector
	for _, n := range names {
		v, _ := g.VertexByName(authorT, n)
		x, _ := tr.NeighborVector(pv, v)
		y, _ := tr.NeighborVector(pa, v)
		vvecs = append(vvecs, x)
		avecs = append(avecs, y)
	}
	sv := sparse.Sum(vvecs)
	sa := sparse.Sum(avecs)
	want := map[string]float64{}
	for i, n := range names {
		num := 4*vvecs[i].Dot(sv) + avecs[i].Dot(sa)
		den := 4*vvecs[i].Norm2Sq() + avecs[i].Norm2Sq()
		want[n] = num / den
	}
	for _, e := range res.Entries {
		if math.Abs(e.Score-want[e.Name]) > 1e-9 {
			t.Errorf("%s: concat score %g, want %g", e.Name, e.Score, want[e.Name])
		}
	}
}

func TestParseCombination(t *testing.T) {
	for name, want := range map[string]Combination{
		"average": CombineAverage, "avg": CombineAverage,
		"concat": CombineConcat, "concatenate": CombineConcat,
	} {
		got, err := ParseCombination(name)
		if err != nil || got != want {
			t.Errorf("ParseCombination(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseCombination("zzz"); err == nil {
		t.Error("unknown combination should fail")
	}
	if CombineAverage.String() != "average" || CombineConcat.String() != "concat" ||
		Combination(9).String() == "" {
		t.Error("Combination.String misbehaves")
	}
}

// The two combination modes must rank differently in general but both must
// agree with Baseline vs PM materialization.
func TestQuickCombinationsUnderPM(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		a, _ := g.Schema().TypeByName("author")
		authors := g.VerticesOfType(a)
		anchor := g.Name(authors[r.Intn(len(authors))])
		src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author
JUDGED BY author.paper.venue, author.paper.term : 2.0;`, anchor)
		for _, c := range []Combination{CombineAverage, CombineConcat} {
			rb, err1 := NewEngine(g, WithCombination(c)).Execute(src)
			rp, err2 := NewEngine(g, WithCombination(c), WithMaterializer(NewPM(g))).Execute(src)
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

// ---------------------------------------------------------------------------
// Progressive execution

func TestProgressiveExactOnCompletion(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	exact, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []ProgressiveSnapshot
	prog, err := NewEngine(g).ExecuteProgressive(src, ProgressiveOptions{
		ChunkSize: 1,
		OnSnapshot: func(s ProgressiveSnapshot) bool {
			snaps = append(snaps, s)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 { // three reference vertices, chunk size 1
		t.Fatalf("snapshots = %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Exact || last.ProcessedRefs != last.TotalRefs {
		t.Fatalf("final snapshot not exact: %+v", last)
	}
	if len(prog.Entries) != len(exact.Entries) {
		t.Fatalf("progressive entries = %+v", prog.Entries)
	}
	for i := range exact.Entries {
		if prog.Entries[i].Vertex != exact.Entries[i].Vertex ||
			math.Abs(prog.Entries[i].Score-exact.Entries[i].Score) > 1e-9 {
			t.Fatalf("progressive diverges: %+v vs %+v", prog.Entries[i], exact.Entries[i])
		}
	}
	// Final half-widths are zero (exact).
	for _, est := range last.TopK {
		if est.HalfWidth != 0 {
			t.Errorf("exact snapshot has half-width %g", est.HalfWidth)
		}
	}
}

func TestProgressiveEarlyStop(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`
	calls := 0
	res, err := NewEngine(g).ExecuteProgressive(src, ProgressiveOptions{
		ChunkSize: 1,
		OnSnapshot: func(s ProgressiveSnapshot) bool {
			calls++
			return calls < 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("snapshot calls = %d", calls)
	}
	if len(res.Entries) == 0 {
		t.Fatal("early stop should still return estimates")
	}
}

func TestProgressiveMultiFeatureAndErrors(t *testing.T) {
	g := fig1Graph(t)
	multi := `FIND OUTLIERS FROM author{"Zoe"}.paper.author
JUDGED BY author.paper.venue, author.paper.author;`
	if _, err := NewEngine(g).ExecuteProgressive(multi, ProgressiveOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(g).ExecuteProgressive("bogus", ProgressiveOptions{}); err == nil {
		t.Error("bad query should fail")
	}
}

// The snapshot that completes Sr reduces the whole of it with the engine's
// own reduction and scorers, so under every measure, combination and
// strategy its answer is Execute's on the same engine bit for bit, entries
// and skip list, whatever the chunk size. The strategies run at a crossover
// the graph's type reaches, so Execute scores the scan from norms.
func TestProgressiveExactIsExecute(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(41)))
	texts := []string{
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 15;`,
		`FIND OUTLIERS FROM author COMPARED TO author{"A3"}.paper.venue.paper.author
JUDGED BY author.paper.venue : 1, author.paper.term : 2;`,
	}
	lowered := func(m *Materializer, err error) *Materializer {
		if err != nil {
			t.Fatal(err)
		}
		m.lru.minKnown = 1
		return m
	}
	mats := map[string]func() *Materializer{
		"baseline": func() *Materializer { return eagerBaseline(g) },
		"pm":       func() *Materializer { return lowered(NewPM(g), nil) },
		"cached":   func() *Materializer { return lowered(NewCached(g, 1<<20)) },
	}
	for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
		for _, c := range []Combination{CombineAverage, CombineConcat} {
			for name, newMat := range mats {
				eng := NewEngine(g, WithMeasure(m), WithCombination(c), WithMaterializer(newMat()))
				for _, chunk := range []int{1, 5, 64} {
					for i, src := range texts {
						label := fmt.Sprintf("%s/%s/%s chunk %d, text %d", m, c, name, chunk, i)
						var last ProgressiveSnapshot
						prog, err := eng.ExecuteProgressive(src, ProgressiveOptions{ChunkSize: chunk, Seed: 7,
							OnSnapshot: func(s ProgressiveSnapshot) bool { last = s; return true }})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						exact, err := eng.Execute(src)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !last.Exact || prog.Partial || !resultsEqual(prog, exact) {
							t.Fatalf("%s: exact snapshot (exact %v, partial %v) is not Execute's answer\ngot  %+v\nwant %+v",
								label, last.Exact, prog.Partial, prog.Entries, exact.Entries)
						}
					}
				}
			}
		}
	}
}

// The progressive estimator is unbiased: on a larger random graph the
// half-width must cover the true score for most snapshots, and estimates
// must converge to the exact value.
func TestProgressiveConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomBibGraph(r)
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`
	exact, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]float64{}
	for _, e := range exact.Entries {
		truth[e.Name] = e.Score
	}
	var lastNonExact ProgressiveSnapshot
	_, err = NewEngine(g).ExecuteProgressive(src, ProgressiveOptions{
		ChunkSize: 2,
		Seed:      3,
		OnSnapshot: func(s ProgressiveSnapshot) bool {
			if !s.Exact {
				lastNonExact = s
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastNonExact.TotalRefs == 0 {
		t.Skip("graph too small for a non-exact snapshot")
	}
	covered, total := 0, 0
	for _, est := range lastNonExact.TopK {
		want, ok := truth[est.Name]
		if !ok {
			continue
		}
		total++
		if math.Abs(est.Score-want) <= est.HalfWidth+1e-9 {
			covered++
		}
	}
	if total > 0 && float64(covered)/float64(total) < 0.5 {
		t.Errorf("confidence intervals cover only %d/%d true scores", covered, total)
	}
}

// ---------------------------------------------------------------------------
// Explanations

func TestExplain(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	eng := NewEngine(g)
	x, err := eng.Explain(src, "Zoe", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Zoe's exact score is 2 (hand-computed in TestExecuteBasicNetOut);
	// the explanation's total must reproduce it.
	if math.Abs(x.Score-2.0) > 1e-12 {
		t.Fatalf("explained score = %g, want 2", x.Score)
	}
	if len(x.Paths) != 1 {
		t.Fatalf("paths = %+v", x.Paths)
	}
	pe := x.Paths[0]
	if pe.Visibility != 13 {
		t.Fatalf("visibility = %g, want 13", pe.Visibility)
	}
	if len(pe.Contributions) != 2 {
		t.Fatalf("contributions = %+v", pe.Contributions)
	}
	// Per-coordinate: KDD share = 9/13, ICDE share = 4/13; Ω parts sum to 2.
	var sum, shares float64
	for _, c := range pe.Contributions {
		sum += c.Omega
		shares += c.CandidateShare
	}
	if math.Abs(sum-2.0) > 1e-12 || math.Abs(shares-1.0) > 1e-12 {
		t.Fatalf("Ω parts sum %g (want 2), shares %g (want 1)", sum, shares)
	}
	if pe.Contributions[0].Name != "KDD" { // largest share first
		t.Fatalf("first contribution = %+v", pe.Contributions[0])
	}
	if !strings.Contains(x.Format(), "KDD") {
		t.Error("Format missing neighbor names")
	}
}

func TestExplainTruncationAndErrors(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	eng := NewEngine(g)
	x, err := eng.Explain(src, "Zoe", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Paths[0].Contributions) != 1 {
		t.Fatalf("truncation failed: %+v", x.Paths[0].Contributions)
	}
	if _, err := eng.Explain(src, "Nobody", 0); err == nil {
		t.Error("unknown candidate should fail")
	}
	if _, err := eng.Explain(src, "Hermit", 0); err == nil {
		t.Error("candidate outside the set should fail")
	}
	if _, err := eng.Explain("bogus", "Zoe", 0); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := NewEngine(g, WithMeasure(MeasureCosSim)).Explain(src, "Zoe", 0); err == nil {
		t.Error("explanations under CosSim should fail")
	}
	// Zero-visibility candidate: explanation exists, path block is empty.
	x, err = eng.Explain(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`, "Hermit", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Paths[0].Contributions) != 0 || x.Score != 0 || !math.IsNaN(x.Paths[0].Score) {
		t.Fatalf("hermit explanation = %+v", x)
	}
	if !strings.Contains(x.Format(), "skipped") {
		t.Error("Format should mention the skip")
	}
}

// Explanations must reproduce Execute's scores on random graphs.
func TestQuickExplainMatchesExecute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBibGraph(r)
		a, _ := g.Schema().TypeByName("author")
		authors := g.VerticesOfType(a)
		anchor := g.Name(authors[r.Intn(len(authors))])
		src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author
JUDGED BY author.paper.venue, author.paper.term : 2.0;`, anchor)
		eng := NewEngine(g)
		res, err := eng.Execute(src)
		if err != nil {
			return false
		}
		for _, e := range res.Entries {
			x, err := eng.Explain(src, e.Name, 0)
			if err != nil {
				t.Logf("explain %q: %v", e.Name, err)
				return false
			}
			if math.Float64bits(x.Score) != math.Float64bits(e.Score) {
				t.Logf("%s: explain %g vs execute %g", e.Name, x.Score, e.Score)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Suggestions

func TestSuggestFeatures(t *testing.T) {
	g := fig1Graph(t)
	src := `FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`
	sugs, err := NewEngine(g).SuggestFeatures(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	paths := map[string]bool{}
	for _, s := range sugs {
		paths[s.Path] = true
		if s.Separation < 1 || s.Characterized <= 0 || s.Characterized > 1 {
			t.Errorf("suspicious suggestion %+v", s)
		}
	}
	for _, want := range []string{"author.paper.venue", "author.paper.author", "author.paper.term"} {
		if !paths[want] {
			t.Errorf("expected path %s among suggestions %v", want, paths)
		}
	}
	// Sorted best-first by separation × characterized.
	for i := 1; i < len(sugs); i++ {
		a := sugs[i-1].Separation * sugs[i-1].Characterized
		b := sugs[i].Separation * sugs[i].Characterized
		if a < b {
			t.Fatalf("suggestions not sorted: %v", sugs)
		}
	}
	if out := FormatSuggestions(sugs, 2); !strings.Contains(out, "author.paper") {
		t.Error("FormatSuggestions output wrong")
	}
	// maxHops 4 yields strictly more paths.
	deep, err := NewEngine(g).SuggestFeatures(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(deep) <= len(sugs) {
		t.Fatalf("maxHops=4 gave %d paths, 2 gave %d", len(deep), len(sugs))
	}
}

func TestSuggestFeaturesErrors(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	if _, err := eng.SuggestFeatures("bogus", 2); err == nil {
		t.Error("bad query should fail")
	}
	// Candidate set of size < 3.
	if _, err := eng.SuggestFeatures(`FIND OUTLIERS FROM author{"Hermit"} JUDGED BY author.paper.venue;`, 2); err == nil {
		t.Error("tiny candidate set should fail")
	}
}

// suggestPerVertex is the loop evaluateFeaturePath was before it scored
// through candidateSide and scoreRange, kept as the reference: Φ_p of every
// reference and candidate vertex by plain traversal, one refScorer, a score per
// candidate, NaNs dropped, the rest sorted; the first minimum in candidate
// order is the top outlier.
func suggestPerVertex(t *testing.T, g *hin.Graph, measure Measure, p metapath.Path, cands, refs []hin.VertexID) (Suggestion, bool) {
	t.Helper()
	tr := metapath.NewTraverser(g)
	loadVectors := func(vs []hin.VertexID) []sparse.Vector {
		vecs := make([]sparse.Vector, len(vs))
		for i, v := range vs {
			var err error
			if vecs[i], err = tr.NeighborVector(p, v); err != nil {
				t.Fatal(err)
			}
		}
		return vecs
	}
	scores := ScoreVectors(measure, loadVectors(cands), loadVectors(refs))
	var finite []float64
	minIdx := -1
	for i, s := range scores {
		if math.IsNaN(s) {
			continue
		}
		finite = append(finite, s)
		if minIdx < 0 || s < scores[minIdx] {
			minIdx = i
		}
	}
	if len(finite) < 3 {
		return Suggestion{}, false
	}
	sort.Float64s(finite)
	return Suggestion{
		Path:          p.Dotted(g.Schema()),
		Separation:    (finite[len(finite)/2] + 1) / (finite[0] + 1),
		Characterized: float64(len(finite)) / float64(len(cands)),
		TopOutlier:    g.Name(cands[minIdx]),
		TopScore:      finite[0],
	}, true
}

// SuggestFeatures scores through the executor's candidateSide and scoreRange;
// every number it reports is the per-vertex loop's bit for bit — under all
// three measures, for anchored, whole-type and COMPARED TO queries, on the
// cached strategy, and on a baseline whose second pass over a whole type takes
// the propagated branch (crossover lowered so this graph reaches it).
func TestSuggestMatchesPerVertexLoop(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(23)))
	queries := []string{
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"A3"}.paper.venue.paper.author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"A3"}.paper.venue.paper.author COMPARED TO author JUDGED BY author.paper.term;`,
	}
	for _, measure := range allMeasures {
		// PathSim pays |Sc|·|Sr| dots per path: the short paths are enough.
		maxHops := 4
		if measure == MeasurePathSim {
			maxHops = 2
		}
		cache, err := NewCached(g, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for name, mat := range map[string]*Materializer{"baseline": NewBaseline(g), "eager": eagerBaseline(g), "cached": cache} {
			eng := NewEngine(g, WithMeasure(measure), WithMaterializer(mat))
			for _, src := range queries {
				q := mustParse(t, src)
				plan, err := eng.resolve(context.Background(), q, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []Suggestion
				for _, p := range metapath.Enumerate(g.Schema(), plan.elemType, 2, maxHops) {
					if sug, ok := suggestPerVertex(t, g, measure, p, plan.cands, plan.refs); ok {
						want = append(want, sug)
					}
				}
				if len(want) < 3 {
					t.Fatalf("%q: only %d paths characterize three candidates", src, len(want))
				}
				// Twice: the second pass finds the norms the first left behind.
				for pass := 0; pass < 2; pass++ {
					before := mat.Stats()
					got, err := eng.SuggestFeatures(src, maxHops)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s pass %d %q", measure, name, pass, src)
					if len(got) != len(want) {
						t.Fatalf("%s: %d suggestions, want %d", label, len(got), len(want))
					}
					byPath := map[string]Suggestion{}
					for _, sug := range got {
						byPath[sug.Path] = sug
					}
					for _, w := range want {
						x, ok := byPath[w.Path]
						if !ok || x.TopOutlier != w.TopOutlier ||
							math.Float64bits(x.Separation) != math.Float64bits(w.Separation) ||
							math.Float64bits(x.Characterized) != math.Float64bits(w.Characterized) ||
							math.Float64bits(x.TopScore) != math.Float64bits(w.TopScore) {
							t.Fatalf("%s: %s = %+v (found %v), want %+v", label, w.Path, x, ok, w)
						}
					}
					// A norm read from the table is a candidate of a propagated
					// path; the default crossover is out of this graph's reach.
					propagated := mat.Stats().Sub(before).IndexedVectors > 0
					if name == "baseline" && propagated {
						t.Fatalf("%s: propagated below the crossover", label)
					}
					if name == "eager" && measure == MeasureNetOut && pass == 1 && src == queries[0] && !propagated {
						t.Fatalf("%s: the warm whole-type pass did not propagate", label)
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Batch execution

func TestExecuteBatch(t *testing.T) {
	g := fig1Graph(t)
	queries := []string{
		`FIND OUTLIERS FROM author{"Zoe"}.paper.author JUDGED BY author.paper.venue;`,
		`FIND OUTLIERS FROM author{"Liam"}.paper.author JUDGED BY author.paper.venue;`,
		`bogus query`,
		`FIND OUTLIERS FROM author JUDGED BY author.paper.author;`,
	}
	results := ExecuteBatch(NewEngine(g), queries, BatchOptions{Workers: 3})
	if len(results) != len(queries) {
		t.Fatalf("results = %d", len(results))
	}
	serial := NewEngine(g)
	for i, br := range results {
		if br.Index != i {
			t.Fatalf("result %d has index %d", i, br.Index)
		}
		want, wantErr := serial.Execute(queries[i])
		if (br.Err == nil) != (wantErr == nil) {
			t.Fatalf("query %d error mismatch: %v vs %v", i, br.Err, wantErr)
		}
		if br.Err == nil && !resultsEqual(br.Result, want) {
			t.Fatalf("query %d result diverges", i)
		}
	}
}

func TestExecuteBatchSharedIndex(t *testing.T) {
	g := fig1Graph(t)
	pm := NewPM(g)
	names := []string{"Zoe", "Liam", "Ava"}
	var queries []string
	for _, n := range names {
		for i := 0; i < 4; i++ {
			queries = append(queries,
				fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, n))
		}
	}
	results := ExecuteBatch(NewEngine(g, WithMaterializer(pm)), queries, BatchOptions{Workers: 4})
	serial := NewEngine(g)
	var indexed int64
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		want, _ := serial.Execute(queries[i])
		if !resultsEqual(br.Result, want) {
			t.Fatalf("query %d diverges under shared PM index", i)
		}
		indexed += br.Result.Timing.IndexedVectors
	}
	// The engine's own materializer is one handle among the workers': it
	// counts the queries that borrowed it and no others.
	if s := pm.Stats(); s.IndexedVectors > indexed || s.TraversedVectors != 0 {
		t.Fatalf("shared materializer counts %+v, the whole batch indexed %d", s, indexed)
	}
}

func TestExecuteBatchSharedCache(t *testing.T) {
	g := fig1Graph(t)
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"Zoe", "Liam", "Ava"}
	var queries []string
	for _, n := range names {
		for i := 0; i < 4; i++ {
			queries = append(queries,
				fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, n))
		}
	}
	results := ExecuteBatch(NewEngine(g, WithMaterializer(mat)), queries, BatchOptions{Workers: 4})
	serial := NewEngine(g)
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		want, _ := serial.Execute(queries[i])
		if !resultsEqual(br.Result, want) {
			t.Fatalf("query %d diverges under shared cache", i)
		}
	}
	// Cache views share warm state: the repeated workload must resolve mostly
	// from cache. Each handle counts its own work, so the queries' counts,
	// taken under four concurrent workers, add up to the cache's exactly.
	cs, ok := CacheStatsOf(mat)
	if !ok {
		t.Fatal("CacheStatsOf failed")
	}
	if cs.Hits <= cs.Misses || cs.Misses == 0 {
		t.Fatalf("shared cache not warm across batch workers: %+v", cs)
	}
	var traversed, indexed int64
	for _, br := range results {
		traversed += br.Result.Timing.TraversedVectors
		indexed += br.Result.Timing.IndexedVectors
	}
	if traversed != cs.Misses || indexed != cs.Hits {
		t.Fatalf("the queries counted %d traversed and %d indexed vectors, the cache %+v", traversed, indexed, cs)
	}
}

func TestExecuteBatchEmpty(t *testing.T) {
	g := fig1Graph(t)
	if results := ExecuteBatch(NewEngine(g), nil, BatchOptions{}); len(results) != 0 {
		t.Fatalf("empty batch: %v", results)
	}
}

func TestExecuteContextCancellation(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first materialization step must abort
	_, err := eng.ExecuteContext(ctx, `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A live context executes normally, and the engine is reusable after a
	// cancelled query.
	res, err := eng.ExecuteContext(context.Background(), `FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err != nil || len(res.Entries) == 0 {
		t.Fatalf("post-cancel execution failed: %v", err)
	}
	// WHERE filtering also honours cancellation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = eng.ExecuteContext(ctx2, `FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) > 0 JUDGED BY author.paper.venue;`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WHERE path: want context.Canceled, got %v", err)
	}
}

func TestStopWhenStable(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	snapshots := 0
	res, err := eng.ExecuteProgressive(
		`FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 2;`,
		ProgressiveOptions{
			ChunkSize: 1,
			OnSnapshot: StopWhenStable(2, 2, func(s ProgressiveSnapshot) bool {
				snapshots++
				return true
			}),
		})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 || len(res.Entries) == 0 {
		t.Fatal("stability stop produced nothing")
	}
	// Stability detector semantics in isolation.
	mk := func(vs ...hin.VertexID) ProgressiveSnapshot {
		s := ProgressiveSnapshot{}
		for _, v := range vs {
			s.TopK = append(s.TopK, ProgressiveEstimate{Vertex: v})
		}
		return s
	}
	cb := StopWhenStable(2, 2, nil)
	if !cb(mk(1, 2)) { // first sight
		t.Fatal("should continue after first snapshot")
	}
	if !cb(mk(1, 2)) { // stable x1
		t.Fatal("should continue after one stable round")
	}
	if cb(mk(1, 2)) { // stable x2 -> stop
		t.Fatal("should stop after two stable rounds")
	}
	cb = StopWhenStable(0, 0, nil) // clamps to 1,1
	if cb(mk(1)) && !cb(mk(2)) {
		// first call establishes, change resets; second identical call stops.
		t.Fatal("clamped detector misbehaves")
	}
	// Inner callback vetoes immediately.
	cb = StopWhenStable(2, 5, func(ProgressiveSnapshot) bool { return false })
	if cb(mk(1, 2)) {
		t.Fatal("inner veto ignored")
	}
}

// An empty reference set is legal: every candidate sums over nothing and
// scores 0 (all equally outlying) — documented degenerate behavior.
func TestEmptyReferenceSet(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS FROM author{"Zoe"}.paper.author
COMPARED TO author AS A WHERE COUNT(A.paper) > 100
JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReferenceCount != 0 {
		t.Fatalf("ReferenceCount = %d", res.ReferenceCount)
	}
	for _, e := range res.Entries {
		if e.Score != 0 {
			t.Fatalf("empty-reference score = %g, want 0", e.Score)
		}
	}
}

// A cancelled context from a previous ExecuteContext must not leak into
// later context-less calls.
func TestStaleContextDoesNotLeak(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	whereQuery := `FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) >= 0 JUDGED BY author.paper.venue;`
	if _, err := eng.ExecuteContext(ctx, whereQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: want Canceled, got %v", err)
	}
	if _, err := eng.Explain(whereQuery, "Zoe", 0); err != nil {
		t.Errorf("Explain saw stale context: %v", err)
	}
	if _, err := eng.SuggestFeatures(whereQuery, 2); err != nil {
		t.Errorf("SuggestFeatures saw stale context: %v", err)
	}
	if _, err := eng.ExecuteProgressive(whereQuery, ProgressiveOptions{}); err != nil {
		t.Errorf("ExecuteProgressive saw stale context: %v", err)
	}
	if _, err := eng.CandidateSet(whereQuery); err != nil {
		t.Errorf("CandidateSet saw stale context: %v", err)
	}
}
