package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// Tests for the waist tables (waist.go). The load-bearing property is the
// subpath cache's: a miss finished by combination returns the vector plain
// traversal returns, Float64bits for Float64bits, for every input — inside
// 2⁵³ because the sums are exact there in any order, outside it because the
// combination is thrown away.

// eagerWaists builds a subpath cache whose waist rule is lowered to ratio, so
// graphs of a few dozen vertices reach the branch (ratio 1: any interior type
// no larger than its neighbours).
func eagerWaists(t testing.TB, g *hin.Graph, maxBytes int64, ratio int) (Materializer, *sharedCacheState) {
	t.Helper()
	mat, err := NewCached(g, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	st := mat.(*indexed).lru
	st.waists.ratio = ratio
	return mat, st
}

// checkBytes holds the cache to its byte invariants: the atomic total is what
// the entries, the tables among them, hold, and it is inside the one budget.
func checkBytes(t *testing.T, label string, st *sharedCacheState) {
	t.Helper()
	if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground {
		t.Fatalf("%s: byte accounting drifted: atomic %d, ground truth %d", label, got, ground)
	}
	if got := st.bytes.Load(); got > st.maxBytes {
		t.Fatalf("%s: cache holds %d bytes, budget %d", label, got, st.maxBytes)
	}
}

// waistTables is the waist tables st holds; it uses none.
func waistTables(st *sharedCacheState) (out []*waistTable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, el := range st.entries {
		if tbl, ok := el.Value.(*waistTable); ok {
			out = append(out, tbl)
		}
	}
	return out
}

// evictAllButWaistTables empties st of every entry that is no waist table.
func (st *sharedCacheState) evictAllButWaistTables() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, el := range st.entries {
		if _, ok := el.Value.(*waistTable); !ok {
			st.removeLocked(el)
		}
	}
}

// waistBytes is what the waist tables st holds are charged.
func waistBytes(st *sharedCacheState) (n int64) {
	for _, tbl := range waistTables(st) {
		n += tbl.bytes()
	}
	return n
}

// TestQuickWaistFinishIsTraversal: over random schemas and multigraphs
// (randomHIN: interleaved vertex IDs, multiplicities up to 9, a tenth of t0
// without an edge — empty frontiers — and suffix vectors that are zero
// wherever a waist vertex has no neighbour of the next type), every Φ of
// every random path from t0 is the traverser's bit for bit — cold, warm, on an
// ample and on a starved budget — and the ample arm really finishes misses at
// a waist.
func TestQuickWaistFinishIsTraversal(t *testing.T) {
	var finished int64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomHIN(r, 9)
		_, paths, _ := randomFeatures(r, g)
		long := []hin.TypeID{0}
		for hops := 4 + r.Intn(3); hops > 0; hops-- { // one path with room for two waists
			next := g.Schema().AllowedFrom(long[len(long)-1])
			long = append(long, next[r.Intn(len(next))])
		}
		paths = append(paths, metapath.MustNew(long...))
		tr := metapath.NewTraverser(g)
		for _, arm := range []struct {
			name  string
			bytes int64
		}{
			{"ample", 8 << 20},
			{"starved", 4 << 10},
		} {
			mat, st := eagerWaists(t, g, arm.bytes, 1)
			for run := 0; run < 2; run++ { // cold tables, then warm ones
				for _, p := range paths {
					for _, v := range g.VerticesOfType(0) {
						want, err := tr.NeighborVector(p, v)
						if err != nil {
							t.Fatal(err)
						}
						got, err := mat.NeighborVector(p, v)
						if err != nil {
							t.Fatal(err)
						}
						vecBitEqual(t, fmt.Sprintf("seed %d %s run %d %v v%d", seed, arm.name, run, p, v), want, got)
					}
				}
				checkBytes(t, fmt.Sprintf("seed %d %s run %d", seed, arm.name, run), st)
			}
			if arm.name != "starved" {
				finished += st.waists.finished.Load()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	if finished == 0 {
		t.Fatal("no miss of any draw was finished at a waist")
	}
}

// waistOverflowGraph is a chain a–b–c–d with two vertices of every type and
// every edge between neighbouring types, so b is a waist of a.b.c.d under
// ratio 1. Odd multiplicities just above 2¹⁸ keep Φ_{ab}, Φ_{abc} and every
// Φ_{bcd} below 2⁵³ and put Φ_{abcd}(a0) near 2⁵⁶, where traversal —
// (Σ_b ab·bc)·cd summed over c — and the combination — ab·(Σ_c bc·cd) summed
// over b — round different products: with these values the first coordinate
// differs in its last bit.
func waistOverflowGraph(t *testing.T) (*hin.Graph, metapath.Path, hin.VertexID) {
	t.Helper()
	s := hin.MustSchema("a", "b", "c", "d")
	s.AllowLink(0, 1)
	s.AllowLink(1, 2)
	s.AllowLink(2, 3)
	b := hin.NewBuilder(s)
	var vs [4][2]hin.VertexID
	for ty := range vs {
		for i := range vs[ty] {
			vs[ty][i] = b.MustAddVertex(hin.TypeID(ty), fmt.Sprintf("%s%d", s.TypeName(hin.TypeID(ty)), i))
		}
	}
	mults := [3][2][2]int32{
		{{262341, 262145}, {1, 1}},
		{{262323, 262259}, {262213, 262329}},
		{{262203, 262295}, {262171, 262225}},
	}
	for ty, m := range mults {
		for i, u := range vs[ty] {
			for j, w := range vs[ty+1] {
				if err := b.AddEdgeMult(u, w, m[i][j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Build(), metapath.MustNew(0, 1, 2, 3), vs[0][0]
}

// A graph that leaves 2⁵³ only in the combination: the cache must notice,
// expand after all and return traversal's bits — and the check is what does
// it: the combination it throws away differs from them.
func TestWaistFallsThroughPast2To53(t *testing.T) {
	g, p, a := waistOverflowGraph(t)
	tr := metapath.NewTraverser(g)
	want, err := tr.NeighborVector(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if !isWaist(g, p, 1, 1) {
		t.Fatal("fixture: b is not a waist of a.b.c.d")
	}
	prefix, _ := tr.NeighborVector(metapath.MustNew(0, 1), a)
	suffix := metapath.MustNew(1, 2, 3)
	combined, exact := tr.Combine(prefix, func(u hin.VertexID) sparse.Vector {
		vec, _ := metapath.NewTraverser(g).NeighborVector(suffix, u)
		for _, x := range vec.Val {
			if x >= 1<<53 {
				t.Fatalf("fixture: a suffix vector is already past 2^53: %v", vec)
			}
		}
		return vec
	}, p.Target())
	if exact {
		t.Fatalf("fixture: the combination stays below 2^53: %v", combined)
	}
	differs := false
	for i := range want.Val {
		differs = differs || math.Float64bits(want.Val[i]) != math.Float64bits(combined.Val[i])
	}
	if !differs {
		t.Fatalf("fixture: combination and traversal agree past 2^53 (%v): the check would be untested", combined)
	}
	mat, st := eagerWaists(t, g, 1<<20, 1)
	for run := 0; run < 2; run++ {
		got, err := mat.NeighborVector(p, a)
		if err != nil {
			t.Fatal(err)
		}
		vecBitEqual(t, fmt.Sprintf("run %d", run), want, got)
	}
	cs, _ := CacheStatsOf(mat)
	if cs.WaistFinishes != 0 || cs.Misses != 1 || cs.HopsSaved != 0 {
		t.Fatalf("%+v, want one miss, expanded to the end", cs)
	}
	checkBytes(t, "past 2^53", st)
}

// The counters of a finished miss, without a new series: one Miss and one
// traversed vector per load, one more traversed vector per slot filled, the
// skipped hops in HopsSaved, the finish in CacheStats and its String, the
// table in Bytes and IndexBytes, and the plan line naming the waist.
func TestWaistAccounting(t *testing.T) {
	g := fig1Graph(t)
	mat, st := eagerWaists(t, g, 1<<20, 1)
	short, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	long, _ := metapath.ParseDotted(g.Schema(), "author.paper.venue.paper.author")
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	if !isWaist(g, long, 2, 1) || isWaist(g, long, 1, 1) || isWaist(g, long, 3, 1) || isWaist(g, short, 1, 1) {
		t.Fatal("fixture: venue@2 should be the one waist of author.paper.venue.paper.author")
	}
	frontier, err := mat.NeighborVector(short, zoe)
	if err != nil {
		t.Fatal(err)
	}
	before := mat.Stats().TraversedVectors
	if _, err := mat.NeighborVector(long, zoe); err != nil {
		t.Fatal(err)
	}
	cs, _ := CacheStatsOf(mat)
	want := CacheStats{Misses: 2, PrefixHits: 1, WaistFinishes: 1, HopsSaved: 4, Bytes: cs.Bytes}
	if cs != want {
		t.Fatalf("after a resumed miss finished at its waist: %+v, want %+v", cs, want)
	}
	if got := mat.Stats().TraversedVectors - before; got != 1+int64(frontier.NNZ()) {
		t.Fatalf("traversed %d vectors, want the miss and %d slot fills", got, frontier.NNZ())
	}
	if w := waistBytes(st); w == 0 || mat.IndexBytes() != cs.Bytes || cs.Bytes <= w {
		t.Fatalf("tables hold %d of the cache's %d bytes (IndexBytes %d)", w, cs.Bytes, mat.IndexBytes())
	}
	checkBytes(t, "accounting", st)
	if s := cs.String(); !strings.Contains(s, "1 misses finished at a waist (4 hops saved)") {
		t.Fatalf("String() = %q", s)
	}
	if s := st.waistLine(long); s != long.String()+": waist=venue@2" {
		t.Fatalf("plan line %q does not name the waist", s)
	}
	if s := st.waistLine(short); s != "" {
		t.Fatalf("plan line %q on a path without a waist", s)
	}
	// A second author through the same venues reads the slots: no fill.
	before = mat.Stats().TraversedVectors
	for _, v := range g.VerticesOfType(a) {
		if _, err := mat.NeighborVector(long, v); err != nil {
			t.Fatal(err)
		}
	}
	venue, _ := g.Schema().TypeByName("venue")
	cs, _ = CacheStatsOf(mat)
	if fills := mat.Stats().TraversedVectors - before - (cs.Misses - 2); fills > int64(g.NumVerticesOfType(venue)-frontier.NNZ()) {
		t.Fatalf("%d slot fills after the first miss, more than the venues it left empty", fills)
	}
}

// Budgets and the production rule: on the scale-1 generator graph the venue
// between papers is a waist and authors and terms between papers are not; a
// table is charged to the cache's one budget; a suffix whose slots alone
// exceed it gets no table, and the plan line says so.
func TestWaistRuleAndShares(t *testing.T) {
	g, _, err := gen.Generate(gen.Scaled(1))
	if err != nil {
		t.Fatal(err)
	}
	parse := func(dotted string) metapath.Path {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	long := parse("author.paper.venue.paper.author.paper.venue")
	for b, want := range []bool{false, false, true, false, false, false, false} {
		if isWaist(g, long, b, waistRatio) != want {
			t.Fatalf("isWaist(%s, %d) = %v", long.Dotted(g.Schema()), b, !want)
		}
	}
	for _, dotted := range []string{"author.paper.author.paper.venue", "author.paper.term.paper.author", "author.paper.venue"} {
		p := parse(dotted)
		for b := 0; b <= p.Hops(); b++ {
			if isWaist(g, p, b, waistRatio) {
				t.Fatalf("isWaist(%s, %d) under the production ratio", dotted, b)
			}
		}
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)[:200]
	tr := metapath.NewTraverser(g)
	// Roomy: the tables stay (45 KB and 20 KB full); small: they are ranked
	// with the vectors; tiny: the venues' slots alone exceed the budget.
	venue, _ := g.Schema().TypeByName("venue")
	for _, tc := range []struct {
		bytes   int64
		dropped bool
	}{{8 << 20, false}, {96 << 10, false}, {8*int64(g.NumVerticesOfType(venue)) - 8, true}} {
		mat, err := NewCached(g, tc.bytes)
		if err != nil {
			t.Fatal(err)
		}
		st := mat.(*indexed).lru
		for _, p := range []metapath.Path{parse("author.paper.venue.paper.author"), long} {
			for _, v := range authors {
				want, _ := tr.NeighborVector(p, v)
				got, err := mat.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				vecBitEqual(t, fmt.Sprintf("budget %d %s v%d", tc.bytes, p.Dotted(g.Schema()), v), want, got)
				checkBytes(t, fmt.Sprintf("budget %d", tc.bytes), st)
			}
		}
		if line := st.waistLine(long); strings.HasSuffix(line, "(dropped)") != tc.dropped || !strings.HasPrefix(line, long.String()+": waist=venue@2") {
			t.Fatalf("budget %d: plan line %q", tc.bytes, line)
		}
		cs, _ := CacheStatsOf(mat)
		if (cs.WaistFinishes == 0) != tc.dropped {
			t.Fatalf("budget %d: %d misses finished at the waist: %+v", tc.bytes, cs.WaistFinishes, cs)
		}
		line := st.waistLine(parse("author.paper.venue.paper.author"))
		if strings.Contains(line, "waist=venue@2(dropped)") != tc.dropped || !strings.Contains(line, "waist=venue@2") {
			t.Fatalf("budget %d: plan line %q", tc.bytes, line)
		}
	}
}

// TestWaistConcurrentStress: 8 goroutines, one handle each, load
// overlapping waisted paths from cold tables — concurrent fills of the same
// slots — first on a roomy budget, then on one so small the store evicts
// while they are being filled. Vectors always match traversal; afterwards the
// bytes are exact, the counters add up and every slot of a live table is the
// vector traversal computes. Run under -race.
func TestWaistConcurrentStress(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(21)))
	var paths []metapath.Path
	for _, dotted := range []string{"author.paper.venue", "author.paper.venue.paper.author", "author.paper.venue.paper.author.paper.term", "author.paper.author.paper.venue"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)[:24]
	want := make(map[ckey]sparse.Vector)
	tr := metapath.NewTraverser(g)
	for _, p := range paths {
		for _, v := range authors {
			want[cacheKey(p, v)], _ = tr.NeighborVector(p, v)
		}
	}
	for _, budget := range []int64{4 << 20, 6 << 10} {
		mat, st := eagerWaists(t, g, budget, 2)
		const (
			workers = 8
			rounds  = 200
		)
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		handles := []Materializer{mat}
		for w := 0; w < workers; w++ {
			m := mat
			if w > 0 {
				var err error
				if m, err = NewView(mat); err != nil {
					t.Fatal(err)
				}
				handles = append(handles, m)
			}
			wg.Add(1)
			go func(w int, m Materializer) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < rounds; i++ {
					// Every worker starts on the same vertices: the same slots,
					// empty, at the same time.
					p, v := paths[1+i%2], authors[i%len(authors)]
					if i >= len(authors) {
						p, v = paths[r.Intn(len(paths))], authors[r.Intn(len(authors))]
					}
					vec, err := m.NeighborVector(p, v)
					if err != nil {
						errCh <- err
						return
					}
					if !vec.Equal(want[cacheKey(p, v)]) {
						errCh <- fmt.Errorf("budget %d worker %d: wrong vector for %v/%d", budget, w, p, v)
						return
					}
				}
			}(w, m)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		cs, _ := CacheStatsOf(mat)
		if cs.Hits+cs.Misses != workers*rounds {
			t.Fatalf("budget %d: Hits+Misses = %d, want %d", budget, cs.Hits+cs.Misses, workers*rounds)
		}
		if cs.WaistFinishes > cs.Misses || cs.WaistFinishes == 0 {
			t.Fatalf("budget %d: %d of %d misses finished at a waist", budget, cs.WaistFinishes, cs.Misses)
		}
		var traversed int64
		for _, h := range handles {
			traversed += h.Stats().TraversedVectors
		}
		if fills := traversed - cs.Misses; fills < 0 {
			t.Fatalf("budget %d: %d traversed vectors for %d misses", budget, traversed, cs.Misses)
		}
		checkBytes(t, fmt.Sprintf("budget %d", budget), st)
		for _, tbl := range waistTables(st) {
			for i := range tbl.slots {
				if vec := tbl.slots[i].Load(); vec != nil {
					ref, err := tr.NeighborVector(tbl.suffix, tbl.ids[i])
					if err != nil || !ref.Equal(*vec) {
						t.Fatalf("budget %d: slot %d of table %v is not traversal's vector (err %v)", budget, i, tbl.suffix, err)
					}
				}
			}
		}
		if evicted := st.evictions.Load(); (evicted > 0) != (budget < 1<<20) {
			t.Fatalf("budget %d: %d evictions", budget, evicted)
		}
	}
}

// The allocation gate of the spill path, beside the root package's
// TestWarmScanAllocationCeiling: one anchored query of the serving
// benchmark's shape on its graph and its 1 MiB subpath cache, the LRU emptied
// before every run — each of the ten candidates is a miss — and the waist
// tables warm. A miss then allocates what escapes it and nothing per hop: the
// seed, the persisted author.paper.venue frontier, the combined vector, their
// cache entries; the four hops after the waist are not walked and the hop
// before the frontier lands in traverser scratch. Measured: 183 per query (267
// with every hop allocated and expanded); the ceiling leaves ~20 %.
func TestSpillQueryAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is handed: traversers regrow their scratch at random (230–250 allocations)")
	}
	const ceiling = 220
	g := waistBenchGraph(t, 0)
	mat, err := NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	st := mat.(*indexed).lru
	a, _ := g.Schema().TypeByName("author")
	apa, _ := metapath.ParseDotted(g.Schema(), "author.paper.author")
	tr := metapath.NewTraverser(g)
	var anchor hin.VertexID = -1
	for _, v := range g.VerticesOfType(a) {
		if coauthors, _ := tr.NeighborVector(apa, v); coauthors.NNZ() == 10 {
			anchor = v
			break
		}
	}
	if anchor < 0 {
		t.Fatal("fixture: no author with ten candidates")
	}
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
	src := fmt.Sprintf("FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue.paper.author.paper.venue TOP 10;", g.Name(anchor))
	run := func() {
		st.evictAllButWaistTables()
		res, err := eng.Execute(src)
		if err != nil || res.CandidateCount != 10 {
			t.Fatalf("spill query: %v", err)
		}
	}
	run() // fills the slots this anchor's venues need
	before := st.cacheStats()
	n := testing.AllocsPerRun(20, run)
	after := st.cacheStats()
	if misses, finished := after.Misses-before.Misses, after.WaistFinishes-before.WaistFinishes; misses != 21*10 || finished != misses {
		t.Fatalf("%d misses, %d finished at the waist: want every candidate of every run", misses, finished)
	}
	if n > ceiling {
		t.Fatalf("spill-shaped query: %.0f allocations per query, ceiling %d", n, ceiling)
	}
	t.Logf("spill-shaped query: %.0f allocations per query (ceiling %d)", n, ceiling)
}

// ---------------------------------------------------------------------------
// BenchmarkWaist

// waistBenchGraph is the serving benchmark's scale-4 generator graph with the
// venue count varied: venuesPerCommunity 0 keeps the generator's own (58
// venues in all under 16 862 papers).
func waistBenchGraph(b testing.TB, venuesPerCommunity int) *hin.Graph {
	b.Helper()
	cfg := gen.Scaled(4)
	cfg.Seed = 1
	if venuesPerCommunity > 0 {
		cfg.VenuesPerCommunity = venuesPerCommunity
	}
	g, _, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// spillLoads is a spill-shaped load list: queries anchored at a random author
// each, judged by one of the serving benchmark's six overlapping features
// (Zipf(0.7) shares, in its order), loading Φ of every coauthor.
func spillLoads(g *hin.Graph, queries int, seed int64) (paths []metapath.Path, loads [][2]int32) {
	for _, dotted := range []string{
		"author.paper.venue",
		"author.paper.venue.paper.author",
		"author.paper.venue.paper.author.paper.venue",
		"author.paper.author",
		"author.paper.author.paper.venue",
		"author.paper.author.paper.term",
	} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			panic(err)
		}
		paths = append(paths, p)
	}
	a, _ := g.Schema().TypeByName("author")
	authors := g.VerticesOfType(a)
	apa := paths[3]
	tr := metapath.NewTraverser(g)
	r := rand.New(rand.NewSource(seed))
	feature := gen.NewZipfSampler(len(paths), 0.7)
	for q := 0; q < queries; q++ {
		cands, _ := tr.NeighborVector(apa, authors[r.Intn(len(authors))])
		f := feature.Sample(r)
		for _, c := range cands.Idx {
			loads = append(loads, [2]int32{int32(f), c})
		}
	}
	return paths, loads
}

// BenchmarkWaist is the evidence for the waist rule's constants (`make
// bench-json` distils it into BENCH_kernel.json; table in DESIGN.md
// "Subpath-decomposed cache").
//
//   - path=/front=: finishing a miss from a frontier of 1 … 58 venues on the
//     serving benchmark's graph, by expanding the suffix hop by hop (what a
//     miss did) against combining warm table vectors, on the three
//     venue-mediated suffixes.
//   - waist=/count=/ratio=: the same two ways to finish with the frontiers
//     real authors have at the waist (256 of them; ns/op is per miss), the
//     bytes a full table would hold, the time filling it takes and what the
//     rule says — over graphs whose venue count is varied under the same
//     16 862 papers, and for the author and the term between papers on the
//     serving benchmark's graph. The evidence for waistRatio, which screens
//     for bytes: a miss is cheaper combined on every row, and the table grows
//     from tens of KiB where the rule says yes to MiB where it says no.
//   - budget=: a spill-shaped load list (600 queries) replayed on a 1 MiB
//     subpath cache without tables and with them, ranked with the vectors:
//     one untimed cold pass, then whole passes timed (ns/op is per pass).
//     entries/load is what the handle's traversers read per load in the first
//     warm pass (metapath.Traverser.Work), which is deterministic.
func BenchmarkWaist(b *testing.B) {
	g := waistBenchGraph(b, 0)
	venue, _ := g.Schema().TypeByName("venue")
	venues := g.VerticesOfType(venue)
	suffixes := []string{"venue.paper.author", "venue.paper.author.paper.venue", "venue.paper.author.paper.term"}
	expand := func(tr *metapath.Traverser, p metapath.Path, frontier sparse.Vector) sparse.Vector {
		for hop := 0; hop < p.Hops()-1; hop++ {
			frontier = tr.ExpandScratch(frontier, p.Type(hop+1), hop)
		}
		return tr.Expand(frontier, p.Target())
	}
	for _, dotted := range suffixes {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			b.Fatal(err)
		}
		tr := metapath.NewTraverser(g)
		table := make(map[hin.VertexID]sparse.Vector, len(venues))
		for _, u := range venues {
			table[u], _ = tr.NeighborVector(p, u)
		}
		lookup := func(u hin.VertexID) sparse.Vector { return table[u] }
		for _, n := range []int{1, 2, 4, 8, 16, 58} {
			frontier := sparse.Vector{}
			for i, u := range venues[:min(n, len(venues))] {
				frontier.Idx = append(frontier.Idx, int32(u))
				frontier.Val = append(frontier.Val, float64(i%5+1))
			}
			name := fmt.Sprintf("path=%s/front=%d", dotted, n)
			b.Run(name+"/expand", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchVec = expand(tr, p, frontier)
				}
			})
			b.Run(name+"/combine", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var exact bool
					if benchVec, exact = tr.Combine(frontier, lookup, p.Target()); !exact {
						b.Fatal("combination left 2^53")
					}
				}
			})
		}
	}

	// rows runs both finishes of prefix·suffix from the frontiers 256 authors
	// have after prefix, over a full table of suffix vectors.
	rows := func(g *hin.Graph, prefixDotted, suffixDotted string) {
		s := g.Schema()
		prefix, _ := metapath.ParseDotted(s, prefixDotted)
		p, _ := metapath.ParseDotted(s, suffixDotted)
		whole, err := prefix.Concat(p)
		if err != nil {
			b.Fatal(err)
		}
		tr := metapath.NewTraverser(g)
		var frontiers []sparse.Vector
		authors := g.VerticesOfType(prefix.Source())
		for i := 0; i < 256; i++ {
			if f, _ := tr.NeighborVector(prefix, authors[i*len(authors)/256]); !f.IsZero() {
				frontiers = append(frontiers, f)
			}
		}
		waist := g.VerticesOfType(p.Source())
		table := make(map[hin.VertexID]sparse.Vector, len(waist))
		var tableBytes int64
		fillStart := time.Now()
		for _, u := range waist {
			vec, _ := tr.NeighborVector(p, u)
			table[u] = vec
			tableBytes += 8 + waistSlotOverhead + int64(vec.Bytes())
		}
		fill := time.Since(fillStart)
		lookup := func(u hin.VertexID) sparse.Vector { return table[u] }
		b0 := prefix.Hops()
		ratio := min(g.NumVerticesOfType(whole.Type(b0-1)), g.NumVerticesOfType(whole.Type(b0+1))) / len(waist)
		rule := 0.0
		if isWaist(g, whole, b0, waistRatio) {
			rule = 1
		}
		name := fmt.Sprintf("waist=%s/count=%d/ratio=%d/path=%s", s.TypeName(p.Source()), len(waist), ratio, suffixDotted)
		b.Run(name+"/expand", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchVec = expand(tr, p, frontiers[i%len(frontiers)])
			}
		})
		b.Run(name+"/combine", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchVec, _ = tr.Combine(frontiers[i%len(frontiers)], lookup, p.Target())
			}
			b.ReportMetric(float64(tableBytes)/1024, "table-KiB")
			b.ReportMetric(float64(fill.Microseconds())/1000, "table-fill-ms")
			b.ReportMetric(rule, "rule-says-yes")
		})
	}
	for _, perCommunity := range []int{0, 100, 200, 400, 1600} {
		g := waistBenchGraph(b, perCommunity)
		for _, dotted := range suffixes[:2] {
			rows(g, "author.paper.venue", dotted)
		}
	}
	// The other interior types of the serving benchmark's paths, on its graph.
	rows(g, "author.paper.author", "author.paper.venue")
	rows(g, "author.paper.author", "author.paper.term")
	rows(g, "author.paper.term", "term.paper.author")

	paths, loads := spillLoads(g, 600, 3)
	for _, arm := range []struct {
		name  string
		ratio int
	}{{"tables=off", 1 << 30}, {"tables=on", waistRatio}} {
		b.Run("budget=1MiB/"+arm.name, func(b *testing.B) {
			mat, st := eagerWaists(b, g, 1<<20, arm.ratio)
			x := mat.(*indexed)
			read := func() int64 {
				if x.fill == nil {
					return x.tr.Work()
				}
				return x.tr.Work() + x.fill.Work()
			}
			replay := func() {
				for _, l := range loads {
					vec, err := mat.NeighborVector(paths[l[0]], hin.VertexID(l[1]))
					if err != nil {
						b.Fatal(err)
					}
					benchVec = vec
				}
			}
			replay()
			var perLoad float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := read()
				if replay(); i == 0 {
					perLoad = float64(read()-before) / float64(len(loads))
				}
			}
			b.StopTimer()
			cs := st.cacheStats()
			b.ReportMetric(perLoad, "entries/load")
			b.ReportMetric(float64(waistBytes(st))/1024, "table-KiB")
			b.ReportMetric(100*float64(cs.WaistFinishes)/float64(max(cs.Misses, 1)), "finished-pct")
			b.ReportMetric(100*cs.HitRate(), "hit-pct")
		})
	}
}

var benchVec sparse.Vector
