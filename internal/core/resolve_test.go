package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netout/internal/metapath"
)

// Every way of running a query starts from Engine.resolve: for COMPARED TO
// present and omitted it returns the sets EvalSet gives and the paths
// FromNames gives, and Execute, progressive execution, Explain and
// SuggestFeatures all answer from them — the same set sizes, the same top
// outlier with the same score, a name outside Sc refused.
func TestResolveServesEveryEntryPoint(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(31)))
	eng := NewEngine(g)
	for _, tc := range []struct {
		name, src string
		anchored  bool // Sc is part of the type, so some author is outside it
	}{
		{"omitted", `FIND OUTLIERS FROM author{"A3"}.paper.venue.paper.author JUDGED BY author.paper.venue;`, true},
		{"present", `FIND OUTLIERS FROM author{"A3"}.paper.venue.paper.author COMPARED TO author JUDGED BY author.paper.venue;`, true},
		{"whole type", `FIND OUTLIERS FROM author COMPARED TO author{"A3"}.paper.venue.paper.author JUDGED BY author.paper.venue;`, false},
	} {
		q := mustParse(t, tc.src)
		plan, err := eng.resolve(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := eng.EvalSet(q.From)
		if err != nil {
			t.Fatal(err)
		}
		refs := cands
		if q.ComparedTo != nil {
			if refs, err = eng.EvalSet(q.ComparedTo); err != nil {
				t.Fatal(err)
			}
		}
		path, err := metapath.FromNames(g.Schema(), "author", "paper", "venue")
		if err != nil {
			t.Fatal(err)
		}
		author, _ := g.Schema().TypeByName("author")
		if !slices.Equal(plan.cands, cands) || !slices.Equal(plan.refs, refs) || plan.elemType != author ||
			len(plan.paths) != 1 || plan.paths[0].Key() != path.Key() || !slices.Equal(plan.weights, []float64{1}) {
			t.Fatalf("%s: resolve = %d candidates, %d references, paths %v, weights %v", tc.name,
				len(plan.cands), len(plan.refs), plan.paths, plan.weights)
		}

		res, err := eng.Execute(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eng.ExecuteProgressive(tc.src, ProgressiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for label, r := range map[string]*Result{"Execute": res, "progressive": prog} {
			if r.CandidateCount != len(cands) || r.ReferenceCount != len(refs) {
				t.Fatalf("%s %s: |Sc| = %d, |Sr| = %d, want %d, %d", tc.name, label,
					r.CandidateCount, r.ReferenceCount, len(cands), len(refs))
			}
			if r.Entries[0].Vertex != res.Entries[0].Vertex {
				t.Fatalf("%s %s: top outlier %s, Execute's is %s", tc.name, label, r.Entries[0].Name, res.Entries[0].Name)
			}
		}
		top := res.Entries[0]
		x, err := eng.Explain(tc.src, top.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(x.Score) != math.Float64bits(top.Score) {
			t.Fatalf("%s: Explain(%s) = %v, Execute scored %v", tc.name, top.Name, x.Score, top.Score)
		}
		if tc.anchored {
			// The last authors of a bigBibGraph have no paper.
			authors := g.VerticesOfType(author)
			outsider := authors[len(authors)-1]
			if containsVertex(cands, outsider) {
				t.Fatalf("%s: the paperless %s is a candidate", tc.name, g.Name(outsider))
			}
			if _, err := eng.Explain(tc.src, g.Name(outsider), 0); err == nil {
				t.Fatalf("%s: Explain accepted %s, which is outside Sc", tc.name, g.Name(outsider))
			}
		}
		sugs, err := eng.SuggestFeatures(tc.src, 2)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(sugs, func(s Suggestion) bool { return s.Path == "author.paper.venue" })
		if i < 0 || sugs[i].TopOutlier != top.Name || math.Float64bits(sugs[i].TopScore) != math.Float64bits(top.Score) ||
			sugs[i].Characterized != float64(len(res.Entries))/float64(len(cands)) {
			t.Fatalf("%s: SuggestFeatures on the query's own path = %+v, Execute's top is %s at %v over %d of %d",
				tc.name, sugs, top.Name, top.Score, len(res.Entries), len(cands))
		}
	}
}
