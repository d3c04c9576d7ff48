package main

import (
	"fmt"
	"log"
	"sort"

	"netout"
)

// table2 reproduces the paper's Table 2 exactly: the toy candidate set of
// Table 1 scored under NetOut, PathSim and CosSim. This experiment is fully
// specified by the paper, so the values must match to two decimals.
func (h *harness) table2() {
	header("Table 2 — toy example: NetOut vs PathSim vs CosSim (paper values in brackets)")

	names := []string{"Sarah", "Rob", "Lucy", "Joe", "Emma"}
	records := [][4]float64{
		{10, 10, 1, 1},
		{0, 1, 20, 20},
		{0, 5, 10, 10},
		{0, 0, 0, 2},
		{0, 0, 0, 30},
	}
	paper := map[string][3]float64{
		"Sarah": {100, 100, 100},
		"Rob":   {6.24, 9.97, 12.43},
		"Lucy":  {31.11, 32.79, 32.83},
		"Joe":   {50, 1.94, 7.04},
		"Emma":  {3.33, 5.44, 7.04},
	}
	vec := func(rec [4]float64) netout.Vector {
		var idx []int32
		var val []float64
		for i, c := range rec {
			if c != 0 {
				idx = append(idx, int32(i))
				val = append(val, c)
			}
		}
		return netout.Vector{Idx: idx, Val: val}
	}
	var cands []netout.Vector
	for _, r := range records {
		cands = append(cands, vec(r))
	}
	refs := make([]netout.Vector, 100)
	for i := range refs {
		refs[i] = vec([4]float64{10, 10, 1, 1})
	}
	no := netout.ScoreVectors(netout.MeasureNetOut, cands, refs)
	ps := netout.ScoreVectors(netout.MeasurePathSim, cands, refs)
	cs := netout.ScoreVectors(netout.MeasureCosSim, cands, refs)

	fmt.Printf("%-8s %22s %22s %22s\n", "", "Ω-NetOut", "Ω-PathSim", "Ω-CosSim")
	for i, n := range names {
		p := paper[n]
		fmt.Printf("%-8s %12.2f [%6.2f] %12.2f [%6.2f] %12.2f [%6.2f]\n",
			n, no[i], p[0], ps[i], p[1], cs[i], p[2])
	}
	fmt.Println()
}

// visibility returns each author's paper count (their visibility proxy, as
// Table 3's discussion uses "has published roughly N papers").
func paperCount(g *netout.Graph, name string) int {
	author, _ := g.Schema().TypeByName("author")
	paper, _ := g.Schema().TypeByName("paper")
	v, ok := g.VertexByName(author, name)
	if !ok {
		return 0
	}
	return g.Degree(v, paper)
}

// table3 reproduces Table 3's comparison: the same hub-coauthor query under
// the three measures, demonstrating that PathSim and CosSim surface only
// low-visibility authors while NetOut's outliers span a wide visibility
// range.
func (h *harness) table3() {
	g, man := h.network()
	header(fmt.Sprintf("Table 3 — top-5 outliers among %s's coauthors, P = author.paper.venue", man.Hub))

	src := fmt.Sprintf(`FIND OUTLIERS
FROM author{%q}.paper.author
JUDGED BY author.paper.venue
TOP 5;`, man.Hub)

	type row struct {
		name   string
		score  float64
		papers int
	}
	results := map[netout.Measure][]row{}
	for _, m := range []netout.Measure{netout.MeasureNetOut, netout.MeasurePathSim, netout.MeasureCosSim} {
		eng := netout.NewEngine(g, netout.WithMeasure(m))
		res, err := eng.Execute(src)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range res.Entries {
			results[m] = append(results[m], row{e.Name, e.Score, paperCount(g, e.Name)})
		}
	}
	fmt.Printf("%-4s | %-28s %8s %6s | %-28s %8s %6s | %-28s %8s %6s\n",
		"rank",
		"NetOut", "Ω", "#pap",
		"PathSim", "Ω", "#pap",
		"CosSim", "Ω", "#pap")
	for i := 0; i < 5; i++ {
		line := fmt.Sprintf("%-4d", i+1)
		for _, m := range []netout.Measure{netout.MeasureNetOut, netout.MeasurePathSim, netout.MeasureCosSim} {
			r := results[m][i]
			line += fmt.Sprintf(" | %-28s %8.3f %6d", r.name, r.score, r.papers)
		}
		fmt.Println(line)
	}
	span := func(m netout.Measure) (lo, hi int) {
		lo, hi = 1<<30, 0
		for _, r := range results[m] {
			if r.papers < lo {
				lo = r.papers
			}
			if r.papers > hi {
				hi = r.papers
			}
		}
		return
	}
	nlo, nhi := span(netout.MeasureNetOut)
	plo, phi := span(netout.MeasurePathSim)
	clo, chi := span(netout.MeasureCosSim)
	fmt.Printf("\nvisibility span of the top-5 (paper counts): NetOut %d..%d | PathSim %d..%d | CosSim %d..%d\n",
		nlo, nhi, plo, phi, clo, chi)
	fmt.Println("paper's finding: NetOut spans ~30..300 papers; PathSim/CosSim top-5 all have <2 papers.")
	fmt.Println()
}

// caseStudyQueries are the three queries of Table 5.
func caseStudyQueries(man *netout.Manifest) []struct{ title, src string } {
	return []struct{ title, src string }{
		{
			fmt.Sprintf("Sc = Sr = author{%q}.paper.author, P = author.paper.venue", man.Hub),
			fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, man.Hub),
		},
		{
			fmt.Sprintf("Sc = Sr = author{%q}.paper.author, P = author.paper.author", man.Hub),
			fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.author TOP 10;`, man.Hub),
		},
		{
			fmt.Sprintf("Sc = Sr = venue{%q}.paper.author, P = author.paper.venue", man.MainVenue),
			fmt.Sprintf(`FIND OUTLIERS FROM venue{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, man.MainVenue),
		},
	}
}

// table5 reproduces the three case-study queries of Table 5.
func (h *harness) table5() {
	g, man := h.network()
	header("Table 5 — case study: three queries, NetOut rankings")

	kind := map[string]string{man.Hub: "hub", man.Null: "missing-data artifact"}
	for _, n := range man.CrossField {
		kind[n] = "cross-field"
	}
	for _, n := range man.Students {
		kind[n] = "student/rare-venue"
	}
	for _, n := range man.Loners {
		kind[n] = "loner"
	}
	for _, n := range man.Normals {
		kind[n] = "normal coauthor"
	}

	queries := caseStudyQueries(man)
	eng := netout.NewEngine(g)
	results := make([]*netout.Result, len(queries))
	for qi, q := range queries {
		fmt.Printf("Query %d: %s\n", qi+1, q.title)
		res, err := eng.Execute(q.src)
		if err != nil {
			log.Fatal(err)
		}
		results[qi] = res
		fmt.Printf("%-4s %-10s %-28s %s\n", "rank", "Ω-value", "name", "planted role")
		for i, e := range res.Entries {
			role := kind[e.Name]
			if role == "" {
				role = "-"
			}
			fmt.Printf("%-4d %-10.3f %-28s %s\n", i+1, e.Score, e.Name, role)
		}
		fmt.Println()
	}
	// Quantify "different judgment criteria lead to rather different
	// results" (the paper observes only one author overlapping between its
	// first two case-study rankings).
	shared, jaccard := netout.OverlapAtK(results[0], results[1], 10)
	fmt.Printf("query 1 vs query 2 (venue- vs coauthor-judged): top-10 overlap = %d (Jaccard %.2f)",
		shared, jaccard)
	if rho, err := netout.SpearmanRho(results[0], results[1]); err == nil {
		fmt.Printf(", Spearman ρ over shared candidates = %.2f", rho)
	}
	fmt.Println()
	fmt.Println("paper's finding: different criteria produce substantially different rankings (its two")
	fmt.Println("case-study lists share a single author). Here the planted cross-field authors are")
	fmt.Println("outlying under both criteria by construction; the query-specific plants (students")
	fmt.Println("under venues, loners under coauthors) appear only in their own ranking.")
	fmt.Println()
}

// lof runs the Section 8 comparison: NetOut against LOF, kNN-distance and
// the random-walk similarities (Personalized PageRank; SimRank on the
// query's ego network), evaluated against the planted venue outliers with
// precision/recall/AP/AUC.
func (h *harness) lof() {
	g, man := h.network()
	header("Section 8 — NetOut vs LOF / kNN / PPR / SimRank on the hub-coauthor venue query")

	eng := netout.NewEngine(g)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, man.Hub)
	q, err := netout.ParseQuery(src)
	if err != nil {
		log.Fatal(err)
	}
	cands, err := eng.EvalSet(q.From)
	if err != nil {
		log.Fatal(err)
	}
	// Feature vectors for every candidate.
	tr := netout.NewTraverser(g)
	p, _ := netout.ParseMetaPath(g.Schema(), "author.paper.venue")
	vecs := make([]netout.Vector, len(cands))
	names := make([]string, len(cands))
	for i, v := range cands {
		vec, err := tr.NeighborVector(p, v)
		if err != nil {
			log.Fatal(err)
		}
		vecs[i] = vec
		names[i] = g.Name(v)
	}

	planted := map[string]bool{}
	for _, n := range man.PlantedOutliers() {
		planted[n] = true
	}
	k := len(man.PlantedOutliers())

	rankOf := func(scores []float64, descending bool) []string {
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if descending {
				return scores[idx[a]] > scores[idx[b]]
			}
			return scores[idx[a]] < scores[idx[b]]
		})
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = names[j]
		}
		return out
	}

	var reports []netout.EvalReport
	addReport := func(method string, scores []float64, descending bool) {
		rep, err := netout.Evaluate(method, rankOf(scores, descending), planted, k)
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
	}

	addReport("NetOut", netout.ScoreVectors(netout.MeasureNetOut, vecs, vecs), false)

	lofScores, err := netout.LOFScores(vecs, netout.LOFOptions{K: 5, Distance: netout.CosineDistance})
	if err != nil {
		log.Fatal(err)
	}
	addReport("LOF (cosine)", lofScores, true)
	lofEuc, err := netout.LOFScores(vecs, netout.LOFOptions{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	addReport("LOF (euclidean)", lofEuc, true)
	knn, err := netout.KNNOutlierScores(vecs, 5)
	if err != nil {
		log.Fatal(err)
	}
	addReport("kNN distance", knn, true)

	ppr, err := netout.PPROutlierScores(g, cands, cands, netout.PPROptions{})
	if err != nil {
		log.Fatal(err)
	}
	addReport("PPR (restart walk)", ppr, false)

	cppr, err := netout.PPRMetaPathOutlierScores(g, p, cands, cands, netout.PPROptions{MaxIter: 20})
	if err != nil {
		log.Fatal(err)
	}
	addReport("PPR (meta-path walk)", cppr, false)

	// SimRank is O(n²); run it on the candidates' 2-hop ego network.
	ego, err := netout.EgoNetwork(g, cands, 2)
	if err != nil {
		log.Fatal(err)
	}
	if len(ego) <= 4096 {
		sub, mapping, err := netout.InducedSubgraph(g, ego)
		if err != nil {
			log.Fatal(err)
		}
		m, err := netout.SimRank(sub, netout.SimRankOptions{})
		if err != nil {
			log.Fatal(err)
		}
		subCands := make([]netout.VertexID, len(cands))
		for i, v := range cands {
			subCands[i] = mapping[v]
		}
		addReport("SimRank (2-hop ego)", netout.SimRankOutlierScores(m, subCands, subCands), false)
	} else {
		fmt.Printf("(SimRank skipped: ego network has %d vertices, above the O(n²) guard)\n", len(ego))
	}

	fmt.Printf("candidates: %d, planted venue outliers: %d (cross-field + students), k = %d\n\n",
		len(cands), k, k)
	fmt.Print(netout.FormatEvalReports(reports))
	fmt.Println("\npaper's finding (Section 8): alternatives such as LOF \"cannot produce better results than NetOut\".")
	fmt.Println()
}
