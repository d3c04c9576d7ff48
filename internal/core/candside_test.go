package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
)

// The candidate side scores from norms and propagated numerators what the
// parent commit scored from one traversal per (path, candidate). That loop is
// kept here as the reference, sharing no code with candidateSide: a throwaway
// traverser per vector, S by sparse.Sum, Equation (1) and the renormalized
// weighted mean spelled out, a full sort for the ranking.
func perVertexResult(t *testing.T, g *hin.Graph, cands, refs []hin.VertexID, paths []metapath.Path, weights []float64, topK int) *Result {
	t.Helper()
	phi := func(p metapath.Path, v hin.VertexID) sparse.Vector {
		vec, err := metapath.NewTraverser(g).NeighborVector(p, v)
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}
	aggs := make([]sparse.Vector, len(paths))
	for m, p := range paths {
		vecs := make([]sparse.Vector, len(refs))
		for j, v := range refs {
			vecs[j] = phi(p, v)
		}
		aggs[m] = sparse.Sum(vecs)
	}
	res := &Result{}
	for _, v := range cands {
		var sum, sumW float64
		seen := false
		for m, p := range paths {
			vec := phi(p, v)
			vis := vec.Norm2Sq()
			if vis == 0 {
				continue
			}
			sum += weights[m] * (vec.Dot(aggs[m]) / vis)
			sumW += weights[m]
			seen = true
		}
		if !seen {
			res.Skipped = append(res.Skipped, v)
			continue
		}
		if sumW > 0 {
			sum /= sumW
		}
		res.Entries = append(res.Entries, Entry{Vertex: v, Name: g.Name(v), Score: sum})
	}
	sort.Slice(res.Entries, func(i, j int) bool { return entryBefore(res.Entries[i], res.Entries[j]) })
	if topK > 0 && len(res.Entries) > topK {
		res.Entries = res.Entries[:topK]
	}
	return res
}

// eagerBaseline is a baseline whose crossover is lowered so that graphs of a
// few hundred vertices reach the propagated branch: any known candidate, at
// least a quarter of the type.
func eagerBaseline(g *hin.Graph) Materializer {
	return &baseline{tr: metapath.NewTraverser(g), vis: &visTable{limit: maxVisBytes, minKnown: 1, minShare: candSideMinShare}}
}

// candSideExecutors are the three places a query's candidate ranges run, each
// over an eager baseline of its own (the in-process shard arm went with the
// tier; "pipeline" and "remote" cover it).
func candSideExecutors(g *hin.Graph) map[string]*Engine {
	return map[string]*Engine{
		"sequential": NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(1)),
		"pipeline":   NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(4)),
		"remote":     NewEngine(g, WithMaterializer(eagerBaseline(g)), WithRemoteShards(fakeFleetOf(g, 2, eagerBaseline)...)),
	}
}

// randomHIN draws a schema of three to five types — a chain t0–t1–… plus
// random extra links — and a multigraph over it: a source type t0 wide enough
// for the chunk pipeline and two shards, vertex IDs of all types interleaved
// (so t0's table span holds strangers), a tenth of t0 left without an edge
// (zero visibility under every path), multiplicities up to maxMult.
func randomHIN(r *rand.Rand, maxMult int32) *hin.Graph {
	k := 3 + r.Intn(3)
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	s := hin.MustSchema(names...)
	links := [][2]hin.TypeID{}
	for i := 1; i < k; i++ {
		links = append(links, [2]hin.TypeID{hin.TypeID(i - 1), hin.TypeID(i)})
	}
	for i := 0; i < k; i++ {
		for j := i + 2; j < k; j++ {
			if r.Intn(3) == 0 {
				links = append(links, [2]hin.TypeID{hin.TypeID(i), hin.TypeID(j)})
			}
		}
	}
	for _, l := range links {
		s.AllowLink(l[0], l[1])
	}
	b := hin.NewBuilder(s)
	counts := make([]int, k)
	counts[0] = 260 + r.Intn(120)
	for i := 1; i < k; i++ {
		counts[i] = 3 + r.Intn(40)
	}
	var order []hin.TypeID
	for ty, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, hin.TypeID(ty))
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	vs := make([][]hin.VertexID, k)
	for _, ty := range order {
		vs[ty] = append(vs[ty], b.MustAddVertex(ty, fmt.Sprintf("%s-%d", names[ty], len(vs[ty]))))
	}
	connected := vs[0][:len(vs[0])-len(vs[0])/10]
	for _, l := range links {
		from := vs[l[0]]
		if l[0] == 0 {
			from = connected
		}
		for _, x := range from {
			for j := r.Intn(4); j > 0; j-- {
				if err := b.AddEdgeMult(x, vs[l[1]][r.Intn(len(vs[l[1]]))], 1+r.Int31n(maxMult)); err != nil {
					panic(err)
				}
			}
		}
	}
	return b.Build()
}

// randomFeatures draws one to three weighted feature paths that start at t0,
// as an OQL clause and resolved.
func randomFeatures(r *rand.Rand, g *hin.Graph) (string, []metapath.Path, []float64) {
	s := g.Schema()
	var clause []string
	var paths []metapath.Path
	var weights []float64
	for n := 1 + r.Intn(3); n > 0; n-- {
		types := []hin.TypeID{0}
		for hops := 1 + r.Intn(4); hops > 0; hops-- {
			next := s.AllowedFrom(types[len(types)-1])
			types = append(types, next[r.Intn(len(next))])
		}
		dotted := make([]string, len(types))
		for i, ty := range types {
			dotted[i] = s.TypeName(ty)
		}
		w := float64(1+r.Intn(8)) / 2
		clause = append(clause, fmt.Sprintf("%s : %g", strings.Join(dotted, "."), w))
		paths = append(paths, metapath.MustNew(types...))
		weights = append(weights, w)
	}
	return strings.Join(clause, ", "), paths, weights
}

// quoted spells a vertex set as an OQL name list.
func quoted(g *hin.Graph, vs []hin.VertexID) string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = fmt.Sprintf("%q", g.Name(v))
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// Over random schemas and multigraphs, in all four executors, for the whole
// type against itself, against a handful of references (most candidates then
// lie outside supp(N) and score +0) and for a strict subset of the type, cold
// and warm: Entries Float64bits-equal and Skipped equal to the per-vertex
// reference. The second run of each query must have read norms from the table
// — the branch under test — and the third (a subset warmed by the scan before
// it) too.
func TestCandidateSideMatchesPerVertexLoop(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomHIN(r, 5)
		all := g.VerticesOfType(0)
		var subset, few []hin.VertexID
		for _, v := range all {
			if r.Intn(3) > 0 {
				subset = append(subset, v)
			}
			if r.Intn(60) == 0 {
				few = append(few, v)
			}
		}
		if last := all[len(all)-1]; len(few) == 0 || few[len(few)-1] != last {
			few = append(few, last) // an edgeless reference among them
		}
		clause, paths, weights := randomFeatures(r, g)
		type shape struct {
			name, from, compared string
			cands, refs          []hin.VertexID
		}
		shapes := []shape{
			{"Sr=Sc", "t0", "", all, all},
			{"few refs", "t0", " COMPARED TO t0" + quoted(g, few), all, few},
			{"subset", "t0" + quoted(g, subset), " COMPARED TO t0", subset, all},
		}
		for name, eng := range candSideExecutors(g) {
			for _, sh := range shapes {
				src := fmt.Sprintf("FIND OUTLIERS FROM %s%s JUDGED BY %s TOP 40;", sh.from, sh.compared, clause)
				want := perVertexResult(t, g, sh.cands, sh.refs, paths, weights, 40)
				for run, temp := range []string{"cold", "warm"} {
					label := fmt.Sprintf("seed %d %s %s %s: %s", seed, name, sh.name, temp, clause)
					got, err := eng.Execute(src)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					entriesBitEqual(t, label, want, got)
					// The first query of an engine finds an empty table; every
					// later one finds its candidates' norms in it.
					if cold := run == 0 && sh.name == "Sr=Sc"; cold == (got.Timing.IndexedVectors > 0) {
						t.Fatalf("%s: %d vectors read from the table", label, got.Timing.IndexedVectors)
					}
				}
			}
			eng.Close()
		}
	}
}

// Multiplicities near 2¹⁴ keep every Φ and every S of a two-hop path below
// 2⁵³ — the reference side propagates — but push N = M_P·S past it, where the
// per-vertex dots round and their order shows. SeedValues must notice and the
// path keep walking per vertex: scores stay the reference's bit for bit, and
// the counters show the abandoned attempt and not one table read.
func TestCandidateSideFallsThroughPast2To53(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomHIN(r, 1<<14)
	all := g.VerticesOfType(0)
	s := g.Schema()
	mid := s.AllowedFrom(0)[0]
	p := metapath.MustNew(0, mid, 0)
	src := fmt.Sprintf("FIND OUTLIERS FROM t0 JUDGED BY t0.%s.t0;", s.TypeName(mid))
	probe := eagerBaseline(g).(setMaterializer)
	agg, exact, err := probe.setVector(context.Background(), p, all)
	if err != nil || !exact {
		t.Fatalf("fixture: S left the exact domain (exact=%v, err=%v)", exact, err)
	}
	if _, exact, err := probe.seedValues(context.Background(), p.Reverse(), agg, all); err != nil || exact {
		t.Fatalf("fixture: N stays in the exact domain (exact=%v, err=%v)", exact, err)
	}
	want := perVertexResult(t, g, all, all, []metapath.Path{p}, []float64{1}, 0)
	for name, eng := range candSideExecutors(g) {
		for _, temp := range []string{"cold", "warm"} {
			got, err := eng.Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			entriesBitEqual(t, name+" "+temp, want, got)
			if got.Timing.IndexedVectors != 0 {
				t.Fatalf("%s %s: %d vectors read from the table past 2^53", name, temp, got.Timing.IndexedVectors)
			}
		}
		eng.Close()
	}
	// Sequential, warm: S, the abandoned N, then a walk per candidate.
	seq := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(1))
	for _, wantLoads := range []int64{1 + int64(len(all)), 2 + int64(len(all))} {
		got, err := seq.Execute(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.Timing.TraversedVectors != wantLoads {
			t.Fatalf("traversed %d vectors, want %d", got.Timing.TraversedVectors, wantLoads)
		}
	}
}

// Accounting without new series: a norm read from the table is an indexed
// vector, a walk a traversed one, a propagation — forward or back — one
// traversed vector per path, and IndexBytes is what the tables hold. With the
// production crossover a scan only propagates once 1 024 of its candidates
// are known and they are a quarter of the type.
func TestCandidateSideAccounting(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(8)), 1500)
	all := g.VerticesOfType(mustType(t, g, "author"))
	span := int64(all[len(all)-1]-all[0]) + 1
	mat := NewBaseline(g)
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
	scan := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;`
	few := `FIND OUTLIERS FROM author` + quoted(g, all[:1000]) + ` COMPARED TO author JUDGED BY author.paper.venue TOP 5;`
	most := `FIND OUTLIERS FROM author` + quoted(g, all[100:1400]) + ` COMPARED TO author JUDGED BY author.paper.venue TOP 5;`
	two := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author TOP 5;`
	n := int64(len(all))
	for _, step := range []struct {
		name, src          string
		traversed, indexed int64
		bytes              int64
	}{
		{"cold scan walks every candidate", scan, 1 + n, 0, 8 * span},
		{"1 000 known candidates stay under the floor", few, 1 + 1000, 0, 8 * span},
		{"warm scan: S, N, then the table", scan, 2, n, 8 * span},
		{"a known subset above the floor propagates too", most, 2, 1300, 8 * span},
		{"one warm path, one cold", two, 2 + 1 + n, n, 16 * span},
		{"both warm", two, 4, 2 * n, 16 * span},
	} {
		res, err := eng.Execute(step.src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timing.TraversedVectors != step.traversed || res.Timing.IndexedVectors != step.indexed {
			t.Fatalf("%s: traversed %d / indexed %d, want %d / %d", step.name,
				res.Timing.TraversedVectors, res.Timing.IndexedVectors, step.traversed, step.indexed)
		}
		if mat.IndexBytes() != step.bytes {
			t.Fatalf("%s: IndexBytes = %d, want %d", step.name, mat.IndexBytes(), step.bytes)
		}
	}
	// A view reads and fills the root's table: warm from its first query.
	view, err := NewView(mat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(g, WithMaterializer(view), WithQueryParallelism(1)).Execute(scan)
	if err != nil || res.Timing.IndexedVectors != n || view.IndexBytes() != 16*span {
		t.Fatalf("view: err=%v indexed=%d bytes=%d, want the root's warm table", err, res.Timing.IndexedVectors, view.IndexBytes())
	}
}

// Eight goroutines on views of one baseline fill and read the same tables at
// once (run under -race): every norm any of them stored is Norm2Sq of the
// vertex's Φ bit for bit, queries answer the reference throughout, and the
// byte bound holds while tables of six paths compete for room for two.
func TestVisTableConcurrentFills(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(21)))
	author := mustType(t, g, "author")
	all := g.VerticesOfType(author)
	span := int64(all[len(all)-1]-all[0]) + 1
	root := &baseline{tr: metapath.NewTraverser(g), vis: &visTable{limit: 2*8*span + 7, minKnown: 1, minShare: candSideMinShare}}
	features := []string{
		"author.paper.venue", "author.paper.term", "author.paper.author",
		"author.paper.venue.paper.author", "author.paper.term.paper.author", "author.paper.author.paper.venue",
	}
	paths := make([]metapath.Path, len(features))
	want := make([]*Result, len(features))
	for i, f := range features {
		var err error
		if paths[i], err = metapath.ParseDotted(g.Schema(), f); err != nil {
			t.Fatal(err)
		}
		want[i] = perVertexResult(t, g, all, all, paths[i:i+1], []float64{1}, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		view, err := NewView(root)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, eng *Engine) {
			defer wg.Done()
			for i := 0; i < 4*len(features); i++ {
				k := (i + w) % len(features)
				got, err := eng.Execute("FIND OUTLIERS FROM author JUDGED BY " + features[k] + ";")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Entries) != len(want[k].Entries) || len(got.Skipped) != len(want[k].Skipped) {
					t.Errorf("worker %d %s: %d entries / %d skipped", w, features[k], len(got.Entries), len(got.Skipped))
					return
				}
				for j, e := range want[k].Entries {
					if e.Vertex != got.Entries[j].Vertex || math.Float64bits(e.Score) != math.Float64bits(got.Entries[j].Score) {
						t.Errorf("worker %d %s: entry %d = %+v, want %+v", w, features[k], j, got.Entries[j], e)
						return
					}
				}
				if b := root.IndexBytes(); b > root.vis.limit {
					t.Errorf("tables hold %d bytes, bound %d", b, root.vis.limit)
				}
			}
		}(w, NewEngine(g, WithMaterializer(view), WithQueryParallelism(1)))
	}
	wg.Wait()
	if b := root.IndexBytes(); b != 2*8*span {
		t.Fatalf("tables hold %d bytes at rest, want two of %d", b, 8*span)
	}
	stored := 0
	for i, p := range paths {
		tbl := root.vis.paths[p.Key()]
		for _, v := range all {
			vis, ok := tbl.get(v)
			if !ok {
				continue
			}
			stored++
			phi, err := metapath.NewTraverser(g).NeighborVector(p, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(vis) != math.Float64bits(phi.Norm2Sq()) {
				t.Fatalf("%s: stored norm of %d = %v, want %v", features[i], v, vis, phi.Norm2Sq())
			}
		}
	}
	if stored == 0 {
		t.Fatal("no norm survived in any table")
	}
}

// A table that cannot fit at all is never created; the scan then walks every
// candidate every time and still answers.
func TestVisTableTooSmallForThePath(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(4)))
	mat := &baseline{tr: metapath.NewTraverser(g), vis: &visTable{limit: 64, minKnown: 1, minShare: candSideMinShare}}
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
	want, err := NewEngine(g, WithQueryParallelism(1)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := eng.Execute(faultQuery)
		if err != nil {
			t.Fatal(err)
		}
		entriesBitEqual(t, "no table", want, got)
		if got.Timing.IndexedVectors != 0 || got.Timing.TraversedVectors != want.Timing.TraversedVectors || mat.IndexBytes() != 0 {
			t.Fatalf("run %d: indexed %d, traversed %d, %d bytes", i, got.Timing.IndexedVectors, got.Timing.TraversedVectors, mat.IndexBytes())
		}
	}
}

// Deadlines on the warm, propagated candidate side. A deadline between the
// hops of the reverse propagation fails the query whole in local
// execution, like one inside the reference side; on a shard it costs that
// shard its whole slice. One that expires among the candidates still yields
// an exact Done-prefix Partial in all three executors: every entry carries
// the full run's score, nothing is skipped that the full run ranks.
func TestCandidateSideDeadlines(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(17)))
	for _, ex := range []struct {
		name string
		opts []Option
	}{
		{"sequential", []Option{WithQueryParallelism(1)}},
		{"pipeline", []Option{WithQueryParallelism(4)}},
		// The in-process shard arm no longer exists; a fake remote fleet is
		// the same shape — a candidateSide, and so a reverse propagation, per
		// shard over its own slice — and polls the same context.
		{"remote", []Option{WithRemoteShards(fakeFleetOf(g, 2, eagerBaseline)...)}},
	} {
		t.Run(ex.name, func(t *testing.T) {
			eng := NewEngine(g, append(ex.opts, WithMaterializer(eagerBaseline(g)))...)
			defer eng.Close()
			if _, err := eng.Execute(faultQuery); err != nil { // fill the table
				t.Fatal(err)
			}
			full, err := eng.Execute(faultQuery)
			if err != nil || full.Timing.IndexedVectors != int64(full.CandidateCount) {
				t.Fatalf("warm run: err=%v, %d of %d norms from the table", err, full.Timing.IndexedVectors, full.CandidateCount)
			}
			nA := full.CandidateCount
			// Polls: query start, the two hops of S, then before hop 0 and hop 1
			// of N — on each shard for the sharded engine.			// With one poll left the unsharded walk stops before its second
			// hop; of two shards at most one starts its walk and neither
			// finishes, so no shard has a prefix and the error stands.
			mid, err := eng.ExecuteContext(newDeadlineAfter(1+setPolls+1), faultQuery)
			if !errors.Is(err, context.DeadlineExceeded) || mid != nil {
				t.Fatalf("deadline inside the reverse propagation: got (%v, %v), want the bare error", mid, err)
			}
			// Past the propagation (setPolls more, per shard) the table answers
			// every candidate and a range polls once per 128-candidate step,
			// not per read: a budget of K polls is K whole steps.
			K := 1
			if ex.name == "pipeline" {
				// Three one-step ranges poll concurrently: only a budget one
				// short of all of them fails exactly one on every schedule.
				K = chunksOf(nA) - 1
			}
			props := int64(setPolls)
			if ex.name == "remote" {
				props *= 2
			}
			res, err := eng.ExecuteContext(newDeadlineAfter(1+setPolls+props+int64(K)), faultQuery)
			if err != nil || !res.Partial {
				t.Fatalf("deadline among the candidates: err=%v, want a Partial result", err)
			}
			score := map[hin.VertexID]float64{}
			for _, e := range full.Entries {
				score[e.Vertex] = e.Score
			}
			skip := map[hin.VertexID]bool{}
			for _, v := range full.Skipped {
				skip[v] = true
			}
			covered := len(res.Entries) + len(res.Skipped)
			if covered == 0 || covered >= nA {
				t.Fatalf("partial covers %d of %d candidates", covered, nA)
			}
			// Every range stops at a step boundary, and the steps add up to the
			// budget; a shard that runs out of it inside its propagation leaves
			// its two polls' worth of steps to the other one.
			steps := covered / parallelChunk
			if ex.name == "remote" {
				steps = 0
				for _, sh := range res.Shards {
					if sh.Done%parallelChunk != 0 && sh.Done != sh.Candidates {
						t.Fatalf("shard %d stopped inside a step: %d of %d candidates", sh.Shard, sh.Done, sh.Candidates)
					}
					steps += chunksOf(sh.Done)
				}
			}
			if ex.name == "sequential" && covered != K*parallelChunk || ex.name == "remote" && (steps < K || steps > K+setPolls) {
				t.Fatalf("partial covers %d candidates in %d steps, want the %d-step budget", covered, steps, K)
			}
			for _, e := range res.Entries {
				if s, ok := score[e.Vertex]; !ok || math.Float64bits(s) != math.Float64bits(e.Score) {
					t.Fatalf("partial entry %s = %v, want the full run's %v", e.Name, e.Score, s)
				}
			}
			for _, v := range res.Skipped {
				if !skip[v] {
					t.Fatalf("partial skipped %d, which the full run ranks", v)
				}
			}
			if ex.name == "sequential" {
				cands, _ := eng.CandidateSet(faultQuery)
				K *= parallelChunk
				for _, v := range cands[:K] {
					if _, ranked := score[v]; !ranked && !skip[v] {
						t.Fatalf("candidate %d of the prefix is nowhere in the full run", v)
					}
				}
				for _, e := range res.Entries {
					if i := sort.Search(len(cands), func(i int) bool { return cands[i] >= e.Vertex }); i >= K {
						t.Fatalf("entry %s lies beyond the %d-candidate prefix", e.Name, K)
					}
				}
			}
		})
	}
}

// A table read polls nothing, the traversal a miss causes polls first: with
// ten norms missing from the second step of a warm scan, a deadline that
// expires on the fifth miss keeps the exact prefix before it — one full step,
// the ten hits that follow and four filled holes.
func TestCandidateSideDeadlineAtAMiss(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(17)))
	mat := eagerBaseline(g)
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
	full, err := eng.Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := eng.CandidateSet(faultQuery)
	author, _ := g.Schema().TypeByName("author")
	paper, _ := g.Schema().TypeByName("paper")
	venue, _ := g.Schema().TypeByName("venue")
	tbl := mat.(*baseline).vis.path(g, metapath.MustNew(author, paper, venue))
	const first, holes, served = parallelChunk + 10, 10, 4
	for _, v := range cands[first : first+holes] {
		tbl.slot(v).Store(0)
	}
	// Polls: query start, two hops of S, two of N, one per step, one per miss.
	res, err := eng.ExecuteContext(newDeadlineAfter(1+setPolls+setPolls+2+served), faultQuery)
	if err != nil || !res.Partial {
		t.Fatalf("deadline at a miss: (%v, %v), want a Partial result", res, err)
	}
	if covered := len(res.Entries) + len(res.Skipped); covered != first+served {
		t.Fatalf("partial covers %d candidates, want the %d before the fifth miss", covered, first+served)
	}
	score := map[hin.VertexID]float64{}
	for _, e := range full.Entries {
		score[e.Vertex] = e.Score
	}
	for _, e := range res.Entries {
		if s, ok := score[e.Vertex]; !ok || math.Float64bits(s) != math.Float64bits(e.Score) || e.Vertex >= cands[first+served] {
			t.Fatalf("partial entry %s = %v: want the full run's %v, inside the prefix", e.Name, e.Score, s)
		}
	}
}

// A pool's hit on a whole-type scan gathers every numerator from the S̃ its
// miss kept, whose norms were still cold: the scores of a plain engine bit for
// bit, one pulled hop per path, not one traversal. A deadline at that gather
// fails the hit whole, as one inside the reverse walk does, and one a poll
// later leaves the exact Done-prefix of the first step.
func TestPoolHitGathersFromTheKeptWalk(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(23)))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author.paper.term : 0.5;`
	want, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(4)
	pool, err := NewServePool(NewEngine(g, WithMaterializer(eagerBaseline(g)), WithEventSink(ring), WithQueryParallelism(1)), ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for run := 0; run < 3; run++ {
		got, err := pool.Execute(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		entriesBitEqual(t, fmt.Sprintf("run %d", run), want, got)
		if run == 0 {
			continue
		}
		if k := ring.Snapshot()[0].Kernels; got.Trace.Compiled != "hit" || got.Timing.TraversedVectors != 0 || k["pull"] != 2 || len(k) != 1 {
			t.Fatalf("hit %d: compiled=%s, %d vectors traversed, kernels %v; want no traversal and two pulled hops",
				run, got.Trace.Compiled, got.Timing.TraversedVectors, k)
		}
	}
	// Polls: admission, query start, one per gather, one per path and step.
	if res, err := pool.Execute(newDeadlineAfter(2), src); res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline at the gather: got (%v, %v), want the bare error", res, err)
	}
	res, err := pool.Execute(newDeadlineAfter(2+2+2), src)
	if err != nil || !res.Partial || len(res.Entries)+len(res.Skipped) != parallelChunk {
		t.Fatalf("deadline after the gathers: err=%v, want a Partial result of one step", err)
	}
	score := map[hin.VertexID]float64{}
	for _, e := range want.Entries {
		score[e.Vertex] = e.Score
	}
	for _, e := range res.Entries {
		if s, ok := score[e.Vertex]; !ok || math.Float64bits(s) != math.Float64bits(e.Score) {
			t.Fatalf("partial entry %s = %v, want the full run's %v", e.Name, e.Score, s)
		}
	}
}

// A shard request on a warm range that propagates allocates what its slice
// needs and nothing the size of a type: no S̃ array — only a pool's miss keeps
// one — and no directory of S, which a propagated path never dots against. A
// cold range, which dots, builds the directory.
func TestShardRequestAllocatesNoSpan(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(5)), 600)
	all := g.VerticesOfType(mustType(t, g, "author"))
	lo, hi, _ := g.TypeIDSpan(mustType(t, g, "paper"))
	span := 8 * uint64(hi-lo+1) // what the S̃ of the path would take
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.author")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, all)
	if err != nil {
		t.Fatal(err)
	}
	b := &ShardBroadcast{Stride: int32(g.NumVertices()), Refs: []ShardRefState{{Agg: s}}}
	req := &ShardRequest{Version: ShardProtocolVersion, TopK: 5, Measure: MeasureNetOut, Combine: CombineAverage,
		Weights: []float64{1}, Paths: []metapath.Path{p}, Candidates: all[:len(all)/2]}
	mat := eagerBaseline(g)
	dirs := func() *refScorer {
		scorers, err := scorersFromRequest(req, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newCandidateSide(ctx, g, mat, scorers, req.Measure, req.Paths, req.Candidates, nil, false); err != nil {
			t.Fatal(err)
		}
		return scorers.perPath[0]
	}
	if rs := dirs(); !rs.hasDir || rs.dir.Bytes() == 0 {
		t.Fatal("a cold range walks per candidate without S's directory")
	}
	serve := func() {
		resp := ServeShardRequest(ctx, g, mat, req, b)
		if resp.Err != "" || resp.Done != len(req.Candidates) || resp.Stats.TraversedVectors != 1 {
			t.Fatalf("warm range: %+v, want it complete on one propagation", resp)
		}
	}
	ServeShardRequest(ctx, g, mat, req, b) // cold: fills the norms
	serve()                                // grows the hop buffers
	if rs := dirs(); rs.hasDir {
		t.Fatalf("a propagated range built S's directory (%d bytes)", rs.dir.Bytes())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if perReq := (after.TotalAlloc - before.TotalAlloc) / runs; perReq >= span {
		t.Fatalf("a propagated range allocated %d bytes per request, the S̃ array alone is %d", perReq, span)
	}
	if raceEnabled {
		return // sync.Pool drops what it is handed
	}
	// Measured: 20 (3.7 KB, a third of the array); the ceiling leaves ~20 %.
	if n := testing.AllocsPerRun(runs, serve); n > 24 {
		t.Fatalf("a propagated range allocated %.0f times per request, ceiling 24", n)
	}
}
