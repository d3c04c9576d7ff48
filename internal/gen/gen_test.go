package gen

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/core"
	"netout/internal/hin"
)

func smallConfig() Config {
	c := Default()
	c.AuthorsPerCommunity = 50
	c.TermsPerCommunity = 40
	c.Papers = 600
	return c
}

func TestGenerateBasics(t *testing.T) {
	cfg := smallConfig()
	g, man, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	s := g.Schema()
	for _, typ := range []string{"author", "paper", "venue", "term"} {
		id, ok := s.TypeByName(typ)
		if !ok {
			t.Fatalf("type %s missing", typ)
		}
		if g.NumVerticesOfType(id) == 0 {
			t.Fatalf("no vertices of type %s", typ)
		}
	}
	a, _ := s.TypeByName("author")
	// Planted authors exist.
	for _, name := range append([]string{man.Hub, man.Null}, man.PlantedOutliers()...) {
		if _, ok := g.VertexByName(a, name); !ok {
			t.Errorf("planted author %q missing", name)
		}
	}
	if len(man.Normals) != cfg.Planted.NormalCoauthors {
		t.Fatalf("normals = %d", len(man.Normals))
	}
	if len(man.CrossField) != cfg.Planted.CrossFieldCoauthors ||
		len(man.Students) != cfg.Planted.StudentCoauthors ||
		len(man.Loners) != cfg.Planted.LonerCoauthors {
		t.Fatalf("plant counts wrong: %+v", man)
	}
	if man.MainVenue == "" || len(man.CommunityVenues) != cfg.Communities {
		t.Fatalf("manifest venues wrong: %+v", man)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	g1, _, err1 := Generate(cfg)
	g2, _, err2 := Generate(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d/%d vs %d/%d",
			g1.NumVertices(), g1.NumEdges(), g2.NumVertices(), g2.NumEdges())
	}
	// Spot-check full structural equality on a sample of vertices.
	for v := 0; v < g1.NumVertices(); v += 97 {
		if g1.Name(hin.VertexID(v)) != g2.Name(hin.VertexID(v)) {
			t.Fatalf("vertex %d name differs", v)
		}
		for tp := 0; tp < g1.Schema().NumTypes(); tp++ {
			if g1.Degree(hin.VertexID(v), hin.TypeID(tp)) != g2.Degree(hin.VertexID(v), hin.TypeID(tp)) {
				t.Fatalf("vertex %d degree differs", v)
			}
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	g3, _, _ := Generate(cfg2)
	if g3.NumEdges() == g1.NumEdges() && g3.NumVertices() == g1.NumVertices() {
		// Extremely unlikely to collide on both unless the seed is ignored.
		t.Error("different seeds produced identical graph shape")
	}
}

func TestGenerateNoPlants(t *testing.T) {
	cfg := smallConfig()
	cfg.Planted = Planted{Disable: true}
	g, man, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if man.Hub != "" || len(man.CrossField) != 0 || man.Null != "" {
		t.Fatalf("manifest should be empty: %+v", man)
	}
	a, _ := g.Schema().TypeByName("author")
	if g.NumVerticesOfType(a) != cfg.Communities*cfg.AuthorsPerCommunity {
		t.Fatalf("author count = %d", g.NumVerticesOfType(a))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Communities = 0 },
		func(c *Config) { c.AuthorsPerCommunity = 0 },
		func(c *Config) { c.Papers = -1 },
		func(c *Config) { c.MaxAuthorsPerPaper = 0 },
		func(c *Config) { c.CrossCommunityProb = 1.5 },
		func(c *Config) { c.ProductivityZipf = -1 },
		func(c *Config) { c.Planted.HubName = "" },
		func(c *Config) { c.Communities = 1 },
		func(c *Config) { c.Planted.NormalCoauthors = 0 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestScaled(t *testing.T) {
	small := Scaled(1)
	big := Scaled(4)
	if big.Papers <= small.Papers || big.AuthorsPerCommunity <= small.AuthorsPerCommunity {
		t.Fatal("Scaled should grow the background")
	}
	if s := Scaled(0); s.Papers != Scaled(1).Papers {
		t.Fatal("Scaled clamps factor to 1")
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The hub's coauthor set must contain every planted profile.
func TestHubCoauthorSetContainsPlants(t *testing.T) {
	g, man, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(g)
	set, err := e.CandidateSet(fmt.Sprintf(
		`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, man.Hub))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Schema().TypeByName("author")
	members := make(map[string]bool, len(set))
	for _, v := range set {
		members[g.Name(v)] = true
	}
	for _, name := range man.PlantedOutliers() {
		if !members[name] {
			t.Errorf("%q not in hub coauthor set", name)
		}
	}
	for _, name := range man.Loners {
		if !members[name] {
			t.Errorf("loner %q not in hub coauthor set", name)
		}
	}
	for _, name := range man.Normals {
		if !members[name] {
			t.Errorf("normal %q not in hub coauthor set", name)
		}
	}
	_ = a
}

// The central effectiveness claim (Table 3 shape): judged by venues with
// NetOut, the top outliers among the hub's coauthors are the planted
// cross-field and student authors, never the normal pool; and the very top
// of the list includes established (high-visibility) cross-field authors.
func TestNetOutRecoversPlantedVenueOutliers(t *testing.T) {
	g, man, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(g)
	res, err := e.Execute(fmt.Sprintf(`FIND OUTLIERS
FROM author{%q}.paper.author
JUDGED BY author.paper.venue
TOP 10;`, man.Hub))
	if err != nil {
		t.Fatal(err)
	}
	planted := make(map[string]bool)
	for _, n := range man.PlantedOutliers() {
		planted[n] = true
	}
	crossField := make(map[string]bool)
	for _, n := range man.CrossField {
		crossField[n] = true
	}
	k := len(man.CrossField) + len(man.Students)
	if len(res.Entries) < k {
		t.Fatalf("only %d entries", len(res.Entries))
	}
	for i := 0; i < k; i++ {
		if !planted[res.Entries[i].Name] {
			t.Errorf("rank %d is %q (score %.3f), expected a planted outlier",
				i+1, res.Entries[i].Name, res.Entries[i].Score)
		}
	}
	// Established cross-field authors must dominate the very top: NetOut's
	// key qualitative property (Table 3) is that its top outliers span a
	// wide visibility range rather than being all low-visibility authors.
	// The paper itself has the one-paper Tseng at rank 7, so we require the
	// top rank and the majority of the top-5 to be established cross-field
	// authors, not a clean sweep.
	if !crossField[res.Entries[0].Name] {
		t.Errorf("rank 1 is %q, expected an established cross-field author", res.Entries[0].Name)
	}
	topCF := 0
	for i := 0; i < 5 && i < len(res.Entries); i++ {
		if crossField[res.Entries[i].Name] {
			topCF++
		}
	}
	if topCF < 3 {
		names := make([]string, 0, 10)
		for _, e := range res.Entries {
			names = append(names, fmt.Sprintf("%s:%.2f", e.Name, e.Score))
		}
		t.Errorf("top-5 should be mostly cross-field authors, got %v", names)
	}
}

// PathSim and CosSim must instead put the low-visibility students on top
// (the bias Table 3 demonstrates).
func TestPathSimCosSimFavorLowVisibility(t *testing.T) {
	g, man, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	students := make(map[string]bool)
	for _, n := range man.Students {
		students[n] = true
	}
	for _, m := range []core.Measure{core.MeasurePathSim, core.MeasureCosSim} {
		e := core.NewEngine(g, core.WithMeasure(m))
		res, err := e.Execute(fmt.Sprintf(`FIND OUTLIERS
FROM author{%q}.paper.author
JUDGED BY author.paper.venue
TOP %d;`, man.Hub, len(man.Students)))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for _, en := range res.Entries {
			if students[en.Name] {
				hits++
			}
		}
		if hits < len(man.Students)-1 {
			names := make([]string, 0, len(res.Entries))
			for _, en := range res.Entries {
				names = append(names, fmt.Sprintf("%s:%.3f", en.Name, en.Score))
			}
			t.Errorf("%s top-%d should be students, got %v", m, len(man.Students), names)
		}
	}
}

// Judged by coauthors instead of venues, the loners must surface (the
// Ee-Peng Lim effect: different judgment criteria, different outliers).
func TestCoauthorJudgedQueryFindsLoners(t *testing.T) {
	g, man, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(g)
	res, err := e.Execute(fmt.Sprintf(`FIND OUTLIERS
FROM author{%q}.paper.author
JUDGED BY author.paper.author
TOP 10;`, man.Hub))
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, en := range res.Entries {
		rank[en.Name] = i + 1
	}
	for _, loner := range man.Loners {
		r, ok := rank[loner]
		if !ok || r > 10 {
			t.Errorf("loner %q not in top-10 under A.P.A (rank %d)", loner, r)
		}
	}
	// Normals must not appear above the loners.
	normalSet := map[string]bool{}
	for _, n := range man.Normals {
		normalSet[n] = true
	}
	worstLoner := 0
	for _, l := range man.Loners {
		if rank[l] > worstLoner {
			worstLoner = rank[l]
		}
	}
	for i := 0; i < worstLoner && i < len(res.Entries); i++ {
		if normalSet[res.Entries[i].Name] {
			t.Errorf("normal %q ranked %d, above a loner", res.Entries[i].Name, i+1)
		}
	}
}

// The main-venue author query must rank NULL first (Table 5, third query).
func TestMainVenueQueryFindsNull(t *testing.T) {
	g, man, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(g)
	res, err := e.Execute(fmt.Sprintf(`FIND OUTLIERS
FROM venue{%q}.paper.author
JUDGED BY author.paper.venue
TOP 10;`, man.MainVenue))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no entries")
	}
	found := -1
	for i, en := range res.Entries {
		if en.Name == man.Null {
			found = i
			break
		}
	}
	if found != 0 {
		names := make([]string, 0, 5)
		for i, en := range res.Entries {
			if i >= 5 {
				break
			}
			names = append(names, fmt.Sprintf("%s:%.2f", en.Name, en.Score))
		}
		t.Errorf("NULL should rank first, got rank %d in %v", found+1, names)
	}
}

func TestQuickGeneratedGraphsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.Papers = 100 + r.Intn(300)
		cfg.Communities = 2 + r.Intn(4)
		cfg.AuthorsPerCommunity = 20 + r.Intn(40)
		g, _, err := Generate(cfg)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSampler(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	z := NewZipfSampler(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(r)]++
	}
	// Skew: rank 0 must dominate rank 50.
	if counts[0] <= counts[50]*2 {
		t.Fatalf("no Zipf skew: head=%d mid=%d", counts[0], counts[50])
	}
	// Uniform case: s=0 gives roughly equal mass.
	u := NewZipfSampler(10, 0)
	ucounts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		ucounts[u.Sample(r)]++
	}
	for i, c := range ucounts {
		if c < 1400 || c > 2600 {
			t.Fatalf("uniform sampler biased at %d: %d", i, c)
		}
	}
	// Distinct sampling returns unique indices and clamps k.
	got := z.SampleDistinct(r, 5)
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatal("sampleDistinct returned duplicates")
		}
		seen[i] = true
	}
	if n := len(NewZipfSampler(3, 1).SampleDistinct(r, 10)); n != 3 {
		t.Fatalf("clamped distinct sample length = %d", n)
	}
}
