package core

import (
	"context"
	"errors"
	"testing"

	"netout/internal/hin"
	"netout/internal/oql"
)

// Regression tests for two engine bugs. Each test fails on the pre-fix
// engine and pins the corrected behavior.

// partialVisibilityGraph builds a bibliographic network where author Rae is
// visible under author.paper.venue but has NO term links at all, so
// author.paper.term cannot characterize her. Mia and Noa are visible under
// both paths.
func partialVisibilityGraph(t *testing.T) *hin.Graph {
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
	mia := b.MustAddVertex(a, "Mia")
	noa := b.MustAddVertex(a, "Noa")
	rae := b.MustAddVertex(a, "Rae")
	icde := b.MustAddVertex(v, "ICDE")
	kdd := b.MustAddVertex(v, "KDD")
	mining := b.MustAddVertex(tm, "mining")
	p1 := b.MustAddVertex(p, "p1")
	p2 := b.MustAddVertex(p, "p2")
	p3 := b.MustAddVertex(p, "p3")
	b.MustAddEdge(p1, mia)
	b.MustAddEdge(p1, icde)
	b.MustAddEdge(p1, mining)
	b.MustAddEdge(p2, noa)
	b.MustAddEdge(p2, icde)
	b.MustAddEdge(p2, mining)
	// Rae's paper has a venue but no term: term-path visibility is zero.
	b.MustAddEdge(p3, rae)
	b.MustAddEdge(p3, kdd)
	return b.Build()
}

// Under CombineAverage, a candidate's combined score is the weighted
// average over the meta-paths that actually characterize it. A candidate
// visible under only one path must receive exactly its single-path score —
// not that score deflated by the weight of paths it is invisible under.
// (Pre-fix the engine divided by the total feature weight, so Rae's score
// below came out at 1/4 of the correct value.)
func TestCombineAverageRenormalizesPartialVisibility(t *testing.T) {
	g := partialVisibilityGraph(t)
	eng := NewEngine(g)

	combined, err := eng.Execute(`FIND OUTLIERS FROM author
JUDGED BY author.paper.venue : 1.0, author.paper.term : 3.0;`)
	if err != nil {
		t.Fatal(err)
	}
	venueOnly, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.venue;`)
	if err != nil {
		t.Fatal(err)
	}
	score := func(res *Result, name string) float64 {
		t.Helper()
		for _, e := range res.Entries {
			if e.Name == name {
				return e.Score
			}
		}
		t.Fatalf("%s missing from result %+v", name, res.Entries)
		return 0
	}
	got := score(combined, "Rae")
	want := score(venueOnly, "Rae")
	if got != want {
		t.Fatalf("Rae combined score = %g, want her venue-only score %g "+
			"(renormalize by the weight of characterizing paths, not total weight)", got, want)
	}
	// Fully-visible candidates are true weighted averages — the fix must
	// not change them. Mia and Noa are symmetric under both paths, so both
	// paths rank them identically; spot-check one against the hand formula.
	miaVenue := score(venueOnly, "Mia")
	termOnly, err := eng.Execute(`FIND OUTLIERS FROM author JUDGED BY author.paper.term;`)
	if err != nil {
		t.Fatal(err)
	}
	miaTerm := score(termOnly, "Mia")
	wantMia := (1.0*miaVenue + 3.0*miaTerm) / 4.0
	if gotMia := score(combined, "Mia"); gotMia != wantMia {
		t.Fatalf("Mia combined score = %g, want weighted average %g", gotMia, wantMia)
	}
}

// ExecuteContext must clear the engine's context on every exit path.
// The protected entry points (Explain, SuggestFeatures, ...) reset it
// themselves pre-fix; a direct EvalSet on a WHERE-bearing expression did
// not, and inherited the dead context of whichever query ran last.
func TestEvalSetAfterCancelledExecute(t *testing.T) {
	g := fig1Graph(t)
	eng := NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := `FIND OUTLIERS FROM author AS A WHERE COUNT(A.paper) >= 0 JUDGED BY author.paper.venue;`
	if _, err := eng.ExecuteContext(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup: want Canceled, got %v", err)
	}
	q, err := oql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oql.Validate(q, g.Schema()); err != nil {
		t.Fatal(err)
	}
	set, err := eng.EvalSet(q.From)
	if err != nil {
		t.Fatalf("EvalSet saw the previous query's cancelled context: %v", err)
	}
	if len(set) == 0 {
		t.Fatal("EvalSet returned no vertices")
	}
	// An error exit must clear the context too, not only the happy path:
	// cancel only after the failed call, so a leaked handle is dead by the
	// time EvalSet would consult it.
	ctx2, cancel2 := context.WithCancel(context.Background())
	if _, err := eng.ExecuteContext(ctx2, `FIND OUTLIERS FROM author{"Nobody"} JUDGED BY author.paper.venue;`); err == nil {
		t.Fatal("setup: missing-vertex query should fail")
	}
	cancel2()
	if _, err := eng.EvalSet(q.From); err != nil {
		t.Fatalf("EvalSet saw a context after an error exit: %v", err)
	}
}
