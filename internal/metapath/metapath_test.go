package metapath

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"netout/internal/hin"
	"netout/internal/sparse"
)

// bibGraph builds the Figure 1(b) network: Zoe authors five papers (two at
// ICDE, three at KDD); Liam coauthors two of them; Ava coauthors one, plus
// one extra paper with Liam at KDD.
func bibGraph(t *testing.T) (*hin.Graph, map[string]hin.VertexID) {
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
	ids := map[string]hin.VertexID{
		"Ava":  b.MustAddVertex(a, "Ava"),
		"Liam": b.MustAddVertex(a, "Liam"),
		"Zoe":  b.MustAddVertex(a, "Zoe"),
		"ICDE": b.MustAddVertex(v, "ICDE"),
		"KDD":  b.MustAddVertex(v, "KDD"),
	}
	for i := 1; i <= 6; i++ {
		ids[fmt.Sprintf("p%d", i)] = b.MustAddVertex(p, fmt.Sprintf("p%d", i))
	}
	edge := func(x, y string) { b.MustAddEdge(ids[x], ids[y]) }
	for i := 1; i <= 5; i++ {
		edge(fmt.Sprintf("p%d", i), "Zoe")
	}
	edge("p1", "ICDE")
	edge("p2", "ICDE")
	edge("p3", "KDD")
	edge("p4", "KDD")
	edge("p5", "KDD")
	edge("p1", "Liam")
	edge("p2", "Liam")
	edge("p3", "Ava")
	edge("p6", "Ava")
	edge("p6", "Liam")
	edge("p6", "KDD")
	return b.Build(), ids
}

func mustPath(t *testing.T, g *hin.Graph, dotted string) Path {
	t.Helper()
	p, err := ParseDotted(g.Schema(), dotted)
	if err != nil {
		t.Fatalf("ParseDotted(%q): %v", dotted, err)
	}
	return p
}

func TestPathConstruction(t *testing.T) {
	g, _ := bibGraph(t)
	s := g.Schema()
	p := mustPath(t, g, "author.paper.venue")
	if p.Len() != 3 || p.Hops() != 2 {
		t.Fatalf("Len/Hops = %d/%d", p.Len(), p.Hops())
	}
	if s.TypeName(p.Source()) != "author" || s.TypeName(p.Target()) != "venue" {
		t.Fatal("Source/Target wrong")
	}
	if p.Dotted(s) != "author.paper.venue" {
		t.Fatalf("Dotted = %q", p.Dotted(s))
	}
	if _, err := New(); err == nil {
		t.Error("empty New should fail")
	}
	if _, err := FromNames(s); err == nil {
		t.Error("empty FromNames should fail")
	}
	if _, err := FromNames(s, "author", "nosuch"); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := ParseDotted(s, "author..venue"); err == nil {
		t.Error("empty segment should fail")
	}
	if p.String() == "" || p.Key() == "" {
		t.Error("String/Key empty")
	}
	if !slices.Equal(FromKey(p.Key()).types, p.types) {
		t.Error("FromKey round-trip failed")
	}
}

func TestReverseAndConcat(t *testing.T) {
	g, _ := bibGraph(t)
	s := g.Schema()
	apv := mustPath(t, g, "author.paper.venue")
	vpa := apv.Reverse()
	if vpa.Dotted(s) != "venue.paper.author" {
		t.Fatalf("Reverse = %q", vpa.Dotted(s))
	}
	// Reversal is an involution.
	if !slices.Equal(vpa.Reverse().types, apv.types) {
		t.Fatal("double reverse should be identity")
	}
	vpt := mustPath(t, g, "venue.paper.term")
	cat, err := apv.Concat(vpt)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if cat.Dotted(s) != "author.paper.venue.paper.term" {
		t.Fatalf("Concat = %q", cat.Dotted(s))
	}
	if _, err := apv.Concat(apv); err == nil {
		t.Error("type-mismatched concat should fail")
	}
	if _, err := (Path{}).Concat(apv); err == nil {
		t.Error("zero path concat should fail")
	}
	sym := apv.Symmetric()
	if sym.Dotted(s) != "author.paper.venue.paper.author" {
		t.Fatalf("Symmetric = %q", sym.Dotted(s))
	}
	if !slices.Equal(sym.Reverse().types, sym.types) || slices.Equal(apv.Reverse().types, apv.types) {
		t.Error("Symmetric misbehaves")
	}
}

func TestValidate(t *testing.T) {
	g, _ := bibGraph(t)
	s := g.Schema()
	if err := mustPath(t, g, "author.paper.venue").Validate(s); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	bad, _ := FromNames(s, "author", "venue")
	if err := bad.Validate(s); err == nil {
		t.Error("author-venue hop should be rejected")
	}
	if err := (Path{}).Validate(s); err == nil {
		t.Error("zero path should be rejected")
	}
	outOfRange := MustNew(hin.TypeID(50))
	if err := outOfRange.Validate(s); err == nil {
		t.Error("out-of-range type should be rejected")
	}
}

func TestNeighborVectorFigure1(t *testing.T) {
	g, ids := bibGraph(t)
	tr := NewTraverser(g)
	pca := mustPath(t, g, "author.paper.author")
	pv := mustPath(t, g, "author.paper.venue")

	// |π_Pca(Ava, Liam)| = 1 and |π_Pca(Liam, Zoe)| = 2, as in Section 3.
	if phi, err := tr.NeighborVector(pca, ids["Ava"]); err != nil || phi.At(int32(ids["Liam"])) != 1 {
		t.Fatalf("π(Ava,Liam) = %g, %v; want 1", phi.At(int32(ids["Liam"])), err)
	}
	if phi, _ := tr.NeighborVector(pca, ids["Liam"]); phi.At(int32(ids["Zoe"])) != 2 {
		t.Fatalf("π(Liam,Zoe) = %g; want 2", phi.At(int32(ids["Zoe"])))
	}

	// Φ_Pca(Zoe) = [Ava:1, Liam:2, Zoe:5].
	phi, err := tr.NeighborVector(pca, ids["Zoe"])
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.FromMap(map[int32]float64{
		int32(ids["Ava"]): 1, int32(ids["Liam"]): 2, int32(ids["Zoe"]): 5,
	})
	if !phi.Equal(want) {
		t.Fatalf("Φ_Pca(Zoe) = %v, want %v", phi, want)
	}

	// Φ_Pv(Zoe) = [ICDE:2, KDD:3].
	phiV, _ := tr.NeighborVector(pv, ids["Zoe"])
	wantV := sparse.FromMap(map[int32]float64{
		int32(ids["ICDE"]): 2, int32(ids["KDD"]): 3,
	})
	if !phiV.Equal(wantV) {
		t.Fatalf("Φ_Pv(Zoe) = %v, want %v", phiV, wantV)
	}

	// Visibility of Zoe under Pv: 2² + 3² = 13.
	vis, _ := tr.Visibility(pv, ids["Zoe"])
	if vis != 13 {
		t.Fatalf("visibility = %g, want 13", vis)
	}
}

func TestNeighborVectorErrors(t *testing.T) {
	g, ids := bibGraph(t)
	tr := NewTraverser(g)
	pv := mustPath(t, g, "author.paper.venue")
	if _, err := tr.NeighborVector(Path{}, ids["Zoe"]); err == nil {
		t.Error("zero path should fail")
	}
	if _, err := tr.NeighborVector(pv, hin.VertexID(9999)); err == nil {
		t.Error("out-of-range vertex should fail")
	}
	if _, err := tr.NeighborVector(pv, ids["ICDE"]); err == nil {
		t.Error("type-mismatched source should fail")
	}
	if _, err := tr.Visibility(Path{}, ids["Zoe"]); err == nil {
		t.Error("Visibility with zero path should fail")
	}
}

func TestExpandSet(t *testing.T) {
	g, ids := bibGraph(t)
	tr := NewTraverser(g)
	s := g.Schema()
	paperT, _ := s.TypeByName("paper")
	authorT, _ := s.TypeByName("author")
	papers := tr.ExpandSet([]hin.VertexID{ids["Zoe"]}, paperT)
	if len(papers) != 5 {
		t.Fatalf("Zoe's papers = %v", papers)
	}
	coauthors := tr.ExpandSet(papers, authorT)
	if len(coauthors) != 3 {
		t.Fatalf("Zoe's coauthor set = %v", coauthors)
	}
	if got := tr.ExpandSet(nil, paperT); len(got) != 0 {
		t.Fatalf("empty set expansion = %v", got)
	}
}

// bruteCount counts instances of p from vi to vj by explicit DFS,
// multiplying edge multiplicities along each route.
func bruteCount(g *hin.Graph, p Path, vi, vj hin.VertexID) float64 {
	var dfs func(v hin.VertexID, depth int, w float64) float64
	dfs = func(v hin.VertexID, depth int, w float64) float64 {
		if depth == p.Hops() {
			if v == vj {
				return w
			}
			return 0
		}
		var total float64
		nbrs, mults := g.Neighbors(v, p.Type(depth+1))
		for i, u := range nbrs {
			total += dfs(u, depth+1, w*float64(mults[i]))
		}
		return total
	}
	if g.Type(vi) != p.Source() || g.Type(vj) != p.Target() {
		return 0
	}
	return dfs(vi, 0, 1)
}

// randomGraph builds a small random 3-type network with multi-edges.
func randomGraph(r *rand.Rand) *hin.Graph {
	s := hin.MustSchema("a", "b", "c")
	ta, _ := s.TypeByName("a")
	tb, _ := s.TypeByName("b")
	tc, _ := s.TypeByName("c")
	s.AllowLink(ta, tb)
	s.AllowLink(tb, tc)
	s.AllowLink(ta, tc)
	bld := hin.NewBuilder(s)
	var as, bs, cs []hin.VertexID
	for i := 0; i < 4+r.Intn(4); i++ {
		as = append(as, bld.MustAddVertex(ta, fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < 4+r.Intn(4); i++ {
		bs = append(bs, bld.MustAddVertex(tb, fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < 4+r.Intn(4); i++ {
		cs = append(cs, bld.MustAddVertex(tc, fmt.Sprintf("c%d", i)))
	}
	addSome := func(xs, ys []hin.VertexID) {
		for _, x := range xs {
			for _, y := range ys {
				if r.Float64() < 0.4 {
					if err := bld.AddEdgeMult(x, y, int32(1+r.Intn(3))); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	addSome(as, bs)
	addSome(bs, cs)
	addSome(as, cs)
	return bld.Build()
}

func randomValidPath(r *rand.Rand, s *hin.Schema, maxHops int) Path {
	types := []hin.TypeID{hin.TypeID(r.Intn(s.NumTypes()))}
	hops := 1 + r.Intn(maxHops)
	for i := 0; i < hops; i++ {
		next := s.AllowedFrom(types[len(types)-1])
		if len(next) == 0 {
			break
		}
		types = append(types, next[r.Intn(len(next))])
	}
	return MustNew(types...)
}

func TestQuickTraversalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		p := randomValidPath(r, g.Schema(), 3)
		tr := NewTraverser(g)
		src := g.VerticesOfType(p.Source())
		if len(src) == 0 {
			return true
		}
		v := src[r.Intn(len(src))]
		phi, err := tr.NeighborVector(p, v)
		if err != nil {
			return false
		}
		// Every target vertex must match the brute-force DFS count.
		for _, u := range g.VerticesOfType(p.Target()) {
			if math.Abs(phi.At(int32(u))-bruteCount(g, p, v, u)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// For symmetric meta-paths, path counting is symmetric:
// |π(v,u)| == |π(u,v)| because every instance reverses.
func TestQuickSymmetricPathCountSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		base := randomValidPath(r, g.Schema(), 2)
		p := base.Symmetric()
		tr := NewTraverser(g)
		src := g.VerticesOfType(p.Source())
		if len(src) < 2 {
			return true
		}
		v, u := src[r.Intn(len(src))], src[r.Intn(len(src))]
		phiV, err1 := tr.NeighborVector(p, v)
		phiU, err2 := tr.NeighborVector(p, u)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(phiV.At(int32(u))-phiU.At(int32(v))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Visibility equals the squared norm of the neighbor vector, i.e. the count
// of round trips π_{PP⁻¹}(v,v).
func TestQuickVisibilityIsRoundTripCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		base := randomValidPath(r, g.Schema(), 2)
		tr := NewTraverser(g)
		src := g.VerticesOfType(base.Source())
		if len(src) == 0 {
			return true
		}
		v := src[r.Intn(len(src))]
		vis, err := tr.Visibility(base, v)
		if err != nil {
			return false
		}
		roundTrips, err := tr.NeighborVector(base.Symmetric(), v)
		if err != nil {
			return false
		}
		return math.Abs(vis-roundTrips.At(int32(v))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		types := make([]hin.TypeID, n)
		for i := range types {
			types[i] = hin.TypeID(r.Intn(5))
		}
		p := MustNew(types...)
		return slices.Equal(p.Reverse().Reverse().types, p.types) &&
			p.Reverse().Len() == p.Len() &&
			slices.Equal(p.Symmetric().Reverse().types, p.Symmetric().types)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerate(t *testing.T) {
	g, _ := bibGraph(t)
	s := g.Schema()
	authorT, _ := s.TypeByName("author")

	paths := Enumerate(s, authorT, 2, 2)
	// From author, the only first hop is paper; second hops: author, venue, term.
	if len(paths) != 3 {
		t.Fatalf("length-2 paths = %d: %v", len(paths), paths)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if err := p.Validate(s); err != nil {
			t.Fatalf("enumerated invalid path %v: %v", p, err)
		}
		if p.Source() != authorT || p.Hops() != 2 {
			t.Fatalf("bad path %v", p)
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.Key()] = true
	}

	// Deeper enumeration strictly grows and respects the repetition bound.
	deep := Enumerate(s, authorT, 2, 4)
	if len(deep) <= len(paths) {
		t.Fatalf("maxHops=4 gave %d paths", len(deep))
	}
	for _, p := range deep {
		counts := map[hin.TypeID]int{}
		for i := 1; i < p.Len(); i++ {
			counts[p.Type(i)]++
		}
		for tt, c := range counts {
			if c > 2 {
				t.Fatalf("type %d appears %d times in %v", tt, c, p)
			}
		}
	}

	// minHops=1 includes single hops; minHops clamps below 1.
	withSingles := Enumerate(s, authorT, 0, 2)
	if len(withSingles) != len(paths)+1 { // +1 for author.paper
		t.Fatalf("minHops=0 gave %d paths", len(withSingles))
	}
}
