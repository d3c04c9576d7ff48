package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/obs"
	"netout/internal/sparse"
	"netout/internal/xerr"
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
func eagerBaseline(g *hin.Graph) *Materializer {
	return bareWithin(g, keptMaxBytes)
}

// bareWithin is an eager baseline whose store holds limit bytes.
func bareWithin(g *hin.Graph, limit int64) *Materializer {
	m := newMaterializer(g, newPathIndex(g), StrategyBaseline, limit)
	m.lru.minKnown = 1
	return m
}

// normsIn is p's norm table in st, nil when it has none; it moves nothing.
func normsIn(st *sharedCacheState, p metapath.Path) *visPath {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[ckey{path: p.Key(), v: normsOf}]; ok {
		return el.Value.(*visPath)
	}
	return nil
}

// sumOf is S's digest, the one a query's scorers hold (queryScorers.digested).
func sumOf(s sparse.Vector) [32]byte { return ShardRefState{Agg: s}.Sum() }

// keyOf is the store key of S's kept N on p, the one a query's scorers hold
// (queryScorers.numerKey).
func keyOf(p metapath.Path, s sparse.Vector) ckey {
	d := sumOf(s)
	return ckey{path: p.Key() + string(d[:]), v: numerOf}
}

// keptIn is the N st keeps for S on p, or nil; it moves nothing.
func keptIn(st *sharedCacheState, p metapath.Path, s sparse.Vector) *keptN {
	if el, ok := st.entries[keyOf(p, s)]; ok {
		return el.Value.(*keptN)
	}
	return nil
}

// seenIn is what p's norm table in st remembers of S (visPath.sight): "once",
// "spoiled" or "".
func seenIn(st *sharedCacheState, p metapath.Path, s sparse.Vector) string {
	d, tbl := sumOf(s), normsIn(st, p)
	w := binary.BigEndian.Uint64(d[24:])
	for i := range tbl.seen {
		switch tbl.seen[i].Load() {
		case w:
			return "once"
		case ^w:
			return "spoiled"
		}
	}
	return ""
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
	probe := eagerBaseline(g)
	agg, exact, err := probe.setVector(context.Background(), p, all)
	if err != nil || !exact {
		t.Fatalf("fixture: S left the exact domain (exact=%v, err=%v)", exact, err)
	}
	if n, _, err := probe.seedValues(context.Background(), p, agg, keyOf(p, agg), probe.lru.normTable(p), all); err != nil || n != nil {
		t.Fatalf("fixture: N stays in the exact domain (N=%v, err=%v)", n != nil, err)
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
// vector, a walk a traversed one, a propagation — forward or back, its N
// kept or not — one traversed vector per path, a read of a kept N one indexed
// vector, and IndexBytes is what the store holds: norms and kept numerators;
// a first sighting of S is noted on the norm table, outside the store.
// With the production crossover a scan only propagates once 1 024 of its
// candidates are known and they are a quarter of the type.
func TestCandidateSideAccounting(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(8)), 1500)
	all := g.VerticesOfType(mustType(t, g, "author"))
	span := int64(all[len(all)-1]-all[0]) + 1
	// A kept N holds N at every author.
	venue, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	walk := (&keptN{key: ckey{path: venue.Key() + string(make([]byte, 32))}, vs: all}).bytes()
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
		// A first sighting of S puts nothing in the store.
		{"warm scan: S, N, then the table", scan, 2, n, 8 * span},
		// The same S seen a second time: N is kept, still one traversal.
		{"a known subset above the floor propagates too", most, 2, 1300, 8*span + walk},
		// The venue path reads the kept N: an indexed vector, no walk.
		{"one warm path, one cold", two, 2 + n, 1 + n, 16*span + walk},
		// The venue path reads again; the author path walks its S a first time.
		{"both warm", two, 3, 1 + 2*n, 16*span + walk},
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
	// A view reads and fills the root's table: warm from its first query, and
	// reading the N the root kept.
	view := NewView(mat)
	res, err := NewEngine(g, WithMaterializer(view), WithQueryParallelism(1)).Execute(scan)
	if err != nil || res.Timing.TraversedVectors != 1 || res.Timing.IndexedVectors != 1+n || view.IndexBytes() != 16*span+walk {
		t.Fatalf("view: err=%v traversed=%d indexed=%d bytes=%d, want the root's warm table and kept N",
			err, res.Timing.TraversedVectors, res.Timing.IndexedVectors, view.IndexBytes())
	}
}

// Eight goroutines on views of one baseline fill and read the same tables at
// once (run under -race): every norm any of them stored is Norm2Sq of the
// vertex's Φ bit for bit, queries answer the reference throughout, and the
// byte bound holds while tables of six paths compete for room for two. What
// is left at rest — tables, kept N, or both — is the schedule's: the bound
// and the account are all that hold of it.
func TestNormTablesConcurrentFills(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(21)))
	author := mustType(t, g, "author")
	all := g.VerticesOfType(author)
	span := int64(all[len(all)-1]-all[0]) + 1
	root := bareWithin(g, 2*8*span+7)
	features := []string{
		"author.paper.venue", "author.paper.term", "author.paper.author",
		"author.paper.venue.paper.author", "author.paper.term.paper.author", "author.paper.author.paper.venue",
	}
	paths := make([]metapath.Path, len(features))
	want := make([]*Result, len(features))
	norms := make([][]float64, len(features)) // norms[k][i]: Norm2Sq of Φ at all[i]
	for k, f := range features {
		var err error
		if paths[k], err = metapath.ParseDotted(g.Schema(), f); err != nil {
			t.Fatal(err)
		}
		want[k] = perVertexResult(t, g, all, all, paths[k:k+1], []float64{1}, 0)
		tr := metapath.NewTraverser(g)
		for _, v := range all {
			phi, err := tr.NeighborVector(paths[k], v)
			if err != nil {
				t.Fatal(err)
			}
			norms[k] = append(norms[k], phi.Norm2Sq())
		}
	}
	var stored atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		view := NewView(root)
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
				if b := root.IndexBytes(); b > root.lru.maxBytes {
					t.Errorf("tables hold %d bytes, bound %d", b, root.lru.maxBytes)
				}
				tbl := normsIn(root.lru, paths[k]) // nil once evicted
				for j, v := range all {
					if vis, ok := tbl.get(v); ok {
						stored.Add(1)
						if math.Float64bits(vis) != math.Float64bits(norms[k][j]) {
							t.Errorf("worker %d %s: stored norm of %d = %v, want %v", w, features[k], v, vis, norms[k][j])
							return
						}
					}
				}
			}
		}(w, NewEngine(g, WithMaterializer(view), WithQueryParallelism(1)))
	}
	wg.Wait()
	if b := root.IndexBytes(); b > root.lru.maxBytes || b != root.lru.recomputeBytes() {
		t.Fatalf("the store holds %d bytes at rest (re-summed %d), bound %d", b, root.lru.recomputeBytes(), root.lru.maxBytes)
	}
	if stored.Load() == 0 {
		t.Fatal("no norm was stored in any table")
	}
}

// Norm tables go least recently used first: in a store with room for two
// tables, the one read since the other was created survives a third.
func TestNormTablesGoLeastRecentlyUsed(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(5)), 100)
	all := g.VerticesOfType(mustType(t, g, "author"))
	st := bareWithin(g, 2*8*int64(all[len(all)-1]-all[0]+1)+7).lru
	var paths []metapath.Path
	for _, dotted := range []string{"author.paper.venue", "author.paper.term", "author.paper.author"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	a, b := st.normTable(paths[0]), st.normTable(paths[1])
	if st.normTable(paths[0]) != a || st.normTable(paths[2]) == nil {
		t.Fatal("set-up: a table was not created or not found again")
	}
	if normsIn(st, paths[0]) != a || normsIn(st, paths[1]) != nil || b == nil {
		t.Fatalf("A kept %v, B kept %v: want B, the least recently used, evicted",
			normsIn(st, paths[0]) != nil, normsIn(st, paths[1]) != nil)
	}
	if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground {
		t.Fatalf("account %d, re-summed %d", got, ground)
	}
}

// A table that cannot fit at all is never created; the scan then walks every
// candidate every time and still answers.
func TestVisTableTooSmallForThePath(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(4)))
	mat := bareWithin(g, 64)
	eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(1))
	want, err := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(1)).Execute(faultQuery)
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
				for _, sh := range res.Trace.Shards {
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
	tbl := mat.lru.normTable(metapath.MustNew(author, paper, venue))
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

// A whole-type scan whose norms are known for some candidates and not for
// others, interleaved, after a COMPARED TO subset warmed the table: once with
// the numerators walked (the subset seen once) and once read from the kept N
// (the subset's S seen three times). A deadline at the first unknown norm
// keeps the exact prefix before it; the full scan answers a fresh engine bit
// for bit, reads one indexed vector per known norm (plus the kept N), walks
// one per unknown norm (plus S, plus the reverse walk), and leaves every norm
// in the table.
func TestCandidateSideInterleavedNorms(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(17)))
	fresh, err := NewEngine(g, WithQueryParallelism(1)).Execute(faultQuery)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := NewEngine(g).CandidateSet(faultQuery)
	// Every candidate before the 200th is known, then two in three.
	const firstUnknown = 200
	var subset []hin.VertexID
	for i, v := range cands {
		if i < firstUnknown || i%3 != 2 {
			subset = append(subset, v)
		}
	}
	warm := `FIND OUTLIERS FROM author` + quoted(g, subset) + ` COMPARED TO author JUDGED BY author.paper.venue;`
	known, unknown := int64(len(subset)), int64(len(cands)-len(subset))
	score := map[hin.VertexID]float64{}
	for _, e := range fresh.Entries {
		score[e.Vertex] = e.Score
	}
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		numer              string
		warmups            int
		polls              int64 // before the first step: query start, S, then N
		traversed, indexed int64
	}{
		{"walk", 1, 1 + setPolls + setPolls, 2 + unknown, known},
		{"memo", 3, 1 + setPolls + 1, 1 + unknown, 1 + known},
	} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("numer=%s parallelism %d", arm.numer, par)
			mat := eagerBaseline(g)
			eng := NewEngine(g, WithMaterializer(mat), WithQueryParallelism(par))
			for range arm.warmups {
				if _, err := eng.Execute(warm); err != nil {
					t.Fatal(err)
				}
			}
			if par == 1 {
				// One poll per step, the second step's fails at the first miss.
				res, err := eng.ExecuteContext(newDeadlineAfter(arm.polls+2), faultQuery)
				if err != nil || !res.Partial {
					t.Fatalf("%s: deadline at the first unknown norm: (%v, %v), want a Partial result", label, res, err)
				}
				if covered := len(res.Entries) + len(res.Skipped); covered != firstUnknown {
					t.Fatalf("%s: partial covers %d candidates, want the %d before the first unknown norm", label, covered, firstUnknown)
				}
				for _, e := range res.Entries {
					if s, ok := score[e.Vertex]; !ok || math.Float64bits(s) != math.Float64bits(e.Score) || e.Vertex >= cands[firstUnknown] {
						t.Fatalf("%s: partial entry %s = %v: want the full run's %v, inside the prefix", label, e.Name, e.Score, s)
					}
				}
			}
			got, err := eng.Execute(faultQuery)
			if err != nil {
				t.Fatal(err)
			}
			entriesBitEqual(t, label, fresh, got)
			if got.Timing.TraversedVectors != arm.traversed || got.Timing.IndexedVectors != arm.indexed {
				t.Fatalf("%s: traversed %d / indexed %d, want %d / %d", label,
					got.Timing.TraversedVectors, got.Timing.IndexedVectors, arm.traversed, arm.indexed)
			}
			tbl := mat.lru.normTable(p)
			for _, v := range cands {
				if _, ok := tbl.get(v); !ok {
					t.Fatalf("%s: the norm of %d is not in the table after the scan", label, v)
				}
			}
			eng.Close()
		}
	}
}

// A pool's scan walks each path's S back when the norms are warm, keeps N in
// the norm table the second time it sees that S — the retained S of its
// compiled entry — and every later hit reads every numerator from it: the
// scores of a plain engine bit for bit, no kernel and no traversal. A deadline
// at that read fails the hit whole, as one inside the reverse walk does, and
// one a poll later leaves the exact Done-prefix of the first step.
func TestPoolHitReadsTheKeptNumerators(t *testing.T) {
	g := bigBibGraph(rand.New(rand.NewSource(23)))
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue, author.paper.author.paper.term : 0.5;`
	want, err := NewEngine(g).Execute(src)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewEventRing(4)
	pool := NewServePool(NewEngine(g, WithMaterializer(eagerBaseline(g)), WithEventSink(ring), WithQueryParallelism(1)), ServeOptions{Workers: 1})
	defer pool.Close()
	// Runs: a miss with cold norms, a first sighting of each S, a second that
	// keeps its N (two traversals each), then reads.
	for run, traversed := range []int64{-1, 2, 2, 0, 0} {
		got, err := pool.Execute(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		entriesBitEqual(t, fmt.Sprintf("run %d", run), want, got)
		if traversed < 0 {
			continue
		}
		if got.Trace.Compiled != "hit" || got.Timing.TraversedVectors != traversed {
			t.Fatalf("hit %d: compiled=%s, %d vectors traversed, want %d", run, got.Trace.Compiled, got.Timing.TraversedVectors, traversed)
		}
		if k := ring.Snapshot()[0].Kernels; traversed == 0 && len(k) != 0 {
			t.Fatalf("hit %d: kernels %v; want none", run, k)
		}
	}
	// Polls: admission, query start, one per read, one per path and step.
	if res, err := pool.Execute(newDeadlineAfter(2), src); res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline at the read: got (%v, %v), want the bare error", res, err)
	}
	res, err := pool.Execute(newDeadlineAfter(2+2+2), src)
	if err != nil || !res.Partial || len(res.Entries)+len(res.Skipped) != parallelChunk {
		t.Fatalf("deadline after the reads: err=%v, want a Partial result of one step", err)
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

// shardScan is a one-path NetOut shard request over cands.
func shardScan(p metapath.Path, cands []hin.VertexID) *ShardRequest {
	return &ShardRequest{Version: ShardProtocolVersion, TopK: 5, Measure: MeasureNetOut, Combine: CombineAverage,
		Weights: []float64{1}, Paths: []metapath.Path{p}, Candidates: cands}
}

// broadcastOf broadcasts S on arrays of its own, as a decoded request does.
func broadcastOf(g *hin.Graph, s sparse.Vector) *ShardBroadcast {
	return &ShardBroadcast{Stride: int32(g.NumVertices()), Refs: []ShardRefState{{Agg: s.Clone()}}}
}

// A shard request on a warm range that propagates allocates what its slice
// needs and nothing the size of a type: no directory of S, which a propagated
// path never dots against, and on a first sighting of S — its N may never be
// asked for again — nothing in the store. A cold range, which dots,
// builds the directory. A repeat reads the N the second sighting kept, and a
// stream of distinct S's keeps a small store inside its bound.
func TestShardRequestAllocatesNoSpan(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(5)), 600)
	all := g.VerticesOfType(mustType(t, g, "author"))
	lo, hi, _ := g.TypeIDSpan(mustType(t, g, "author"))
	span, kept := 8*int64(hi-lo+1), 8*int64(len(all)) // the norms, and the N a kept entry holds
	norms := span
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.author")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sOf := func(refs []hin.VertexID) sparse.Vector {
		s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, refs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const runs = 20
	bs := broadcastOf(g, sOf(all))
	// Distinct S's, each sent once below: every request a first sighting.
	var stream []*ShardBroadcast
	for k, seen := 1, map[[32]byte]bool{sumOf(bs.Refs[0].Agg): true}; len(stream) < 2*runs+2; k++ {
		if s := sOf(all[k:]); !seen[sumOf(s)] {
			seen[sumOf(s)] = true
			stream = append(stream, broadcastOf(g, s))
		}
	}
	req := shardScan(p, all[:len(all)/2])
	serve := func(mat *Materializer, b *ShardBroadcast, traversed int64) {
		resp := ServeShardRequest(ctx, g, mat, req, b)
		if resp.Err != "" || resp.Done != len(req.Candidates) || resp.Stats.TraversedVectors != traversed {
			t.Fatalf("warm range: %+v, want it complete on %d traversals", resp, traversed)
		}
	}
	mat := eagerBaseline(g)
	dirs := func(b *ShardBroadcast) *refScorer {
		scorers, err := scorersFromRequest(req, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newCandidateSide(ctx, g, mat, scorers, req.Measure, req.Paths, req.Candidates, nil); err != nil {
			t.Fatal(err)
		}
		return scorers.perPath[0]
	}
	if rs := dirs(bs); !rs.hasDir || rs.dir.Bytes() == 0 {
		t.Fatal("a cold range walks per candidate without S's directory")
	}
	ServeShardRequest(ctx, g, mat, req, bs) // cold: fills the norms
	sent := 0
	first := func() {
		serve(mat, stream[sent], 1)
		sent++
	}
	first() // grows the hop buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		first()
	}
	runtime.ReadMemStats(&after)
	// Under -race sync.Pool drops the chunk scratch, which a half-type range
	// then allocates afresh: about the type's span again, but never a kept N
	// on top.
	bound := span
	if raceEnabled {
		bound += kept
	}
	if perReq := int64(after.TotalAlloc-before.TotalAlloc) / runs; perReq >= bound || mat.IndexBytes() != norms {
		t.Fatalf("first sightings allocated %d bytes per request (bound %d, the author type's span is %d) and left %d bytes in the store, want the %d of the norms",
			perReq, bound, span, mat.IndexBytes(), norms)
	}
	// Measured: 22, a walk in scratch ("sync.Pool drops what it is handed"
	// under -race).
	if n := testing.AllocsPerRun(runs, first); n > 22 && !raceEnabled {
		t.Fatalf("a first sighting allocated %.0f times per request, ceiling 22", n)
	}
	// bs's first sighting is noted on the norm table; planning its range
	// again keeps N — still without S's directory — and a repeat only reads
	// it.
	serve(mat, bs, 1)
	one := (&keptN{key: keyOf(p, bs.Refs[0].Agg), vs: all}).bytes()
	if rs := dirs(bs); rs.hasDir || mat.IndexBytes() != norms+one {
		t.Fatalf("second sighting: directory %v, %d bytes in the store, want the norms and one kept N", rs.hasDir, mat.IndexBytes())
	}
	repeat := func() { serve(mat, bs, 0) }
	repeat()
	// A store with room for the norms and one and a half kept N: a stream of
	// distinct S's, each sent three times, keeps each one's N in place of the
	// last on its second sighting, reads it on its third, and never holds more
	// than its bound.
	small := bareWithin(g, norms+3*one/2)
	ServeShardRequest(ctx, g, small, req, bs)
	for k, b := range stream[:8] {
		for i, traversed := range []int64{1, 1, 0} {
			serve(small, b, traversed)
			if n := small.IndexBytes(); n > small.lru.maxBytes || n != small.lru.recomputeBytes() {
				t.Fatalf("S %d, sighting %d: the store holds %d bytes (re-summed %d), bound %d", k, i+1, n, small.lru.recomputeBytes(), small.lru.maxBytes)
			}
		}
	}
	if raceEnabled {
		return // sync.Pool drops what it is handed
	}
	// Measured: 19, under the first sighting's walk in scratch: a slice of
	// consecutive IDs reads N in place.
	if n := testing.AllocsPerRun(runs, repeat); n > 19 {
		t.Fatalf("a range reading a kept N allocated %.0f times per request, ceiling 19", n)
	}
	// A by-digest repeat of S the shard keeps reads the same N, and neither
	// resolving the broadcast nor keying N allocates a slice: the kept S rides
	// on its state and holds the key (keptRef.numerKey). Measured: 20.
	keep := *bs
	keep.Form = RefsKeep
	ServeShardRequest(ctx, g, mat, req, &keep)
	digest := &ShardBroadcast{Stride: bs.Stride, Refs: []ShardRefState{{Digest: sumOf(bs.Refs[0].Agg)}}, Form: RefsDigest}
	if n := testing.AllocsPerRun(runs, func() { serve(mat, digest, 0) }); n > 20 {
		t.Fatalf("a by-digest repeat allocated %.0f times per request, ceiling 20", n)
	}
}

// A broadcast whose S differs from a kept one in one value's bits is another
// S: it walks anew and answers what a fresh baseline answers, bit for bit —
// whether a +0 turned −0, which == cannot tell apart, or a count moved by one.
func TestKeptWalkMatchesEveryBit(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(11)), 400)
	all := g.VerticesOfType(mustType(t, g, "author"))
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kept, _, err := metapath.NewTraverser(g).SetVector(ctx, p, all)
	if err != nil {
		t.Fatal(err)
	}
	kept.Val[0] = 0 // an explicit +0 coordinate
	req := shardScan(p, all)
	for name, edit := range map[string]func([]float64){
		"+0 to -0":  func(v []float64) { v[0] = math.Copysign(0, -1) },
		"count + 1": func(v []float64) { v[len(v)-1]++ },
	} {
		serve := func(mat *Materializer, b *ShardBroadcast) *ShardResponse {
			resp := ServeShardRequest(ctx, g, mat, req, b)
			if resp.Err != "" {
				t.Fatalf("%s: %s", name, resp.Err)
			}
			return resp
		}
		mat := eagerBaseline(g)
		for _, traversed := range []int64{-1, 1, 1, 0} { // cold, two sightings, a read
			if resp := serve(mat, broadcastOf(g, kept)); traversed >= 0 && resp.Stats.TraversedVectors != traversed {
				t.Fatalf("%s: fixture traversed %d vectors, want %d", name, resp.Stats.TraversedVectors, traversed)
			}
		}
		other := broadcastOf(g, kept)
		edit(other.Refs[0].Agg.Val)
		got := serve(mat, other)
		fresh := eagerBaseline(g)
		serve(fresh, broadcastOf(g, other.Refs[0].Agg)) // fills the norms
		want := serve(fresh, broadcastOf(g, other.Refs[0].Agg))
		if got.Stats.TraversedVectors != 1 || want.Stats.TraversedVectors != 1 {
			t.Fatalf("%s: traversed %d vectors (a fresh baseline %d), want a walk anew", name, got.Stats.TraversedVectors, want.Stats.TraversedVectors)
		}
		entriesBitEqual(t, name, &Result{Entries: want.Entries, Skipped: want.Skipped}, &Result{Entries: got.Entries, Skipped: got.Skipped})
	}
}

// A read of the kept N at a run of the type allocates nothing: its store key
// is the scorers' own, made once per reduced S (queryScorers.numerKey), and
// its values are a window of the kept array.
func TestKeptNReadAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(3))
	g := randomHIN(r, 5)
	all := g.VerticesOfType(0)
	_, paths, _ := randomFeatures(r, g)
	s, _, err := metapath.NewTraverser(g).SetVector(ctx, paths[0], all[:len(all)/2])
	if err != nil {
		t.Fatal(err)
	}
	qs := newQueryScorers(MeasureNetOut, CombineAverage, [][]sparse.Vector{{s}}, []float64{1}, int32(g.NumVertices()))
	mat := eagerBaseline(g)
	tbl := mat.lru.normTable(paths[0])
	read := func() string {
		_, how, err := mat.seedValues(ctx, paths[0], qs.perPath[0].s, qs.numerKey(0, paths[:1]), tbl, all[1:])
		if err != nil {
			t.Fatal(err)
		}
		return how
	}
	read() // noted on the table
	read() // N kept
	if how := read(); how != "memo" {
		t.Fatalf("third sighting read %s, want memo", how)
	}
	if n := testing.AllocsPerRun(100, func() { read() }); n != 0 {
		t.Fatalf("a memo read allocates %.0f times, want 0", n)
	}
}

// A by-digest repeat of a broadcast the shard keeps builds no store key for
// its kept N: the kept S holds the key (keptRef.numerKey), so the scorers of
// the repeat take it without an allocation.
func TestDigestRepeatBuildsNoKey(t *testing.T) {
	ctx := context.Background()
	g := bibGraphOf(rand.New(rand.NewSource(5)), 200)
	all := g.VerticesOfType(mustType(t, g, "author"))
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, all[:50])
	if err != nil {
		t.Fatal(err)
	}
	mat, req := eagerBaseline(g), shardScan(p, all)
	keep := broadcastOf(g, s)
	keep.Form = RefsKeep
	if _, err := refsOf(mat, keep); err != nil {
		t.Fatal(err)
	}
	repeat := &ShardBroadcast{Stride: keep.Stride, Refs: []ShardRefState{{Digest: sumOf(s)}}, Form: RefsDigest}
	scorers := func() *queryScorers {
		b, err := refsOf(mat, repeat)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := scorersFromRequest(req, b)
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	if got := scorers().numerKey(0, req.Paths); got != keyOf(p, s) {
		t.Fatalf("the repeat's key is %q, want %q", got, keyOf(p, s))
	}
	bare := testing.AllocsPerRun(100, func() { scorers() })
	keyed := testing.AllocsPerRun(100, func() { scorers().numerKey(0, req.Paths) })
	if keyed != bare {
		t.Fatalf("a by-digest repeat's keys take %.0f allocations beyond its scorers' %.0f, want none", keyed-bare, bare)
	}
}

// A shard request that names no feature path is refused whole: there is
// nothing to score its candidates by.
func TestShardRequestWithoutPathsIsRefused(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(5)), 50)
	all := g.VerticesOfType(mustType(t, g, "author"))
	req := &ShardRequest{Version: ShardProtocolVersion, Measure: MeasureNetOut, Combine: CombineAverage, Candidates: all}
	resp := ServeShardRequest(context.Background(), g, eagerBaseline(g), req, &ShardBroadcast{Stride: int32(g.NumVertices())})
	if resp.Code != xerr.InvalidArgument || resp.Done != 0 || len(resp.Entries)+len(resp.Skipped) != 0 {
		t.Fatalf("a request with no feature path answered %q (code %v, %d done, %d entries, %d skipped), want INVALID_ARGUMENT with nothing done",
			resp.Err, resp.Code, resp.Done, len(resp.Entries), len(resp.Skipped))
	}
}

// A read of the kept N is what the walk returns at the same vertices, bit for
// bit, on types whose IDs interleave with others': at the whole type, at a
// run of it (a window of the kept array), at a subset, out of order and with
// repeats, and at vertices of other types (0).
func TestKeptNReadsWhatTheWalkReturns(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomHIN(r, 5)
		all := g.VerticesOfType(0)
		_, paths, _ := randomFeatures(r, g)
		p := paths[0]
		s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, all[:len(all)/2])
		if err != nil {
			t.Fatal(err)
		}
		mat := eagerBaseline(g)
		for range 2 {
			if _, _, err := mat.seedValues(ctx, p, s, keyOf(p, s), mat.lru.normTable(p), all[:1]); err != nil {
				t.Fatal(err)
			}
		}
		if keptIn(mat.lru, p, s) == nil {
			t.Fatalf("seed %d: N was not kept", seed)
		}
		mixed := []hin.VertexID{all[7], all[3], all[7], g.VerticesOfType(1)[0], all[len(all)-1]}
		for _, at := range [][]hin.VertexID{all, all[10:200], all[1:], mixed} {
			got, how, err := mat.seedValues(ctx, p, s.Clone(), keyOf(p, s), mat.lru.normTable(p), at)
			want, _, _ := metapath.NewTraverser(g).SeedValues(ctx, p.Reverse(), s, at)
			if err != nil || how != "memo" || len(got) != len(want) {
				t.Fatalf("seed %d: %s read %d values (%v), want %d", seed, how, len(got), err, len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d: N[%d] = %v, want %v", seed, at[i], got[i], want[i])
				}
			}
		}
	}
}

// bigSmallGraph is two vertices of type a, big and small, each linked to mid,
// the one vertex of type b: big by mult, small once.
func bigSmallGraph(t *testing.T, mult int32) (g *hin.Graph, small, mid hin.VertexID) {
	s := hin.MustSchema("a", "b")
	s.AllowLink(0, 1)
	bld := hin.NewBuilder(s)
	big, small := bld.MustAddVertex(0, "big"), bld.MustAddVertex(0, "small")
	mid = bld.MustAddVertex(1, "mid")
	for _, e := range []struct {
		u    hin.VertexID
		mult int32
	}{{big, mult}, {small, 1}} {
		if err := bld.AddEdgeMult(e.u, mid, e.mult); err != nil {
			t.Fatal(err)
		}
	}
	return bld.Build(), small, mid
}

// N is kept only when it is exact at every vertex of the type. Over a slice
// whose numerators are exact, beside a vertex outside it whose N is 2⁵³
// (TestSeedValuesExactnessCoversUsedOnly's shape), three repeats of a request
// walk — the second sighting keeps nothing and notes S spoiled on the norm
// table, the third walks as a first sighting — and answer a fresh baseline's
// bits; the store holds the norms alone. With that count made small, the
// second sighting keeps N and the third reads it.
func TestKeptWalkIsExactOverTheType(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		big       int32 // the multiplicity of big's one link
		traversed []int64
		kept      bool
	}{
		{1 << 23, []int64{1, 1, 1}, false},
		{1, []int64{1, 1, 0}, true},
	} {
		g, small, mid := bigSmallGraph(t, tc.big)
		p := metapath.MustNew(0, 1)
		req := shardScan(p, []hin.VertexID{small})
		sv := sparse.Vector{Idx: []int32{int32(mid)}, Val: []float64{1 << 30}} // N[big] = big·2³⁰
		serve := func(mat *Materializer) *ShardResponse {
			resp := ServeShardRequest(ctx, g, mat, req, broadcastOf(g, sv))
			if resp.Err != "" || resp.Done != 1 {
				t.Fatalf("big=%d: %+v", tc.big, resp)
			}
			return resp
		}
		fresh := eagerBaseline(g)
		serve(fresh) // fills the norm
		want := serve(fresh)
		mat := eagerBaseline(g)
		serve(mat)
		var first metapath.KernelCounts // the hops of a first sighting's walk
		for i, traversed := range tc.traversed {
			before := kernelCountsOf(mat)
			got := serve(mat)
			hops := kernelCountsOf(mat)
			if hops = hops.Sub(before); i == 0 {
				first = hops
			}
			if got.Stats.TraversedVectors != traversed {
				t.Fatalf("big=%d, repeat %d: traversed %d vectors, want %d", tc.big, i+1, got.Stats.TraversedVectors, traversed)
			}
			if want := first; i == len(tc.traversed)-1 && (tc.kept && hops != (metapath.KernelCounts{}) || !tc.kept && hops != want) {
				t.Fatalf("big=%d, repeat %d: kernel hops %+v, want a first sighting's %+v or, once kept, none", tc.big, i+1, hops, want)
			}
			entriesBitEqual(t, fmt.Sprintf("big=%d, repeat %d", tc.big, i+1), &Result{Entries: want.Entries, Skipped: want.Skipped}, &Result{Entries: got.Entries, Skipped: got.Skipped})
		}
		norms, kept, seen := int64(16), int64(0), "spoiled" // big and small
		if tc.kept {
			kept, seen = (&keptN{key: keyOf(p, sv), vs: g.VerticesOfType(0)}).bytes(), ""
		}
		if w := keptIn(mat.lru, p, sv); mat.IndexBytes() != norms+kept || (w != nil) != tc.kept || seenIn(mat.lru, p, sv) != seen {
			t.Fatalf("big=%d: the store holds %d bytes, want %d, S's entry %+v and its table notes %q, want %q",
				tc.big, mat.IndexBytes(), norms+kept, w, seenIn(mat.lru, p, sv), seen)
		}
	}
}

// Two S's that take turns on one path each keep an N of their own: sent A B A
// B A B — as two COMPARED TO sets through an engine, and as shard requests —
// each walks on its first two sightings and reads its N from the third on
// (numer=memo, no walk), answering a fresh baseline's bits every
// time. A spoiled S, whose N reaches 2⁵³ at a vertex outside the slice, walks
// on every repeat while another S on the same path promotes beside it.
func TestTwoSsInTurnEachKeepTheirN(t *testing.T) {
	ctx := context.Background()
	numer := func(plan []string) (lines []string) {
		for _, line := range plan {
			if strings.Contains(line, ": numer=") {
				lines = append(lines, line)
			}
		}
		return lines
	}
	// check is one sighting: its plan line, its traversals, a fresh answer's bits.
	check := func(t *testing.T, label string, p metapath.Path, how string, plan []string, traversed, wantTraversed int64, want, got *Result) {
		t.Helper()
		if line := p.String() + ": numer=" + how; !slices.Equal(numer(plan), []string{line}) || traversed != wantTraversed {
			t.Fatalf("%s: plan %q, %d traversed; want [%q], %d", label, plan, traversed, line, wantTraversed)
		}
		entriesBitEqual(t, label, want, got)
	}
	g := bibGraphOf(rand.New(rand.NewSource(19)), 600)
	all := g.VerticesOfType(mustType(t, g, "author"))
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	sightings := []struct {
		how       string
		traversed int64 // the engine's S besides
	}{{"walk", 1}, {"walk", 1}, {"memo", 0}}
	t.Run("engine", func(t *testing.T) {
		eng := NewEngine(g, WithMaterializer(eagerBaseline(g)), WithQueryParallelism(1))
		var srcs []string
		var wants []*Result
		for _, refs := range [][]hin.VertexID{all[:200], all[300:]} {
			src := `FIND OUTLIERS FROM author COMPARED TO author` + quoted(g, refs) + ` JUDGED BY author.paper.venue TOP 10;`
			want, err := NewEngine(g, WithQueryParallelism(1)).Execute(src)
			if err != nil {
				t.Fatal(err)
			}
			srcs, wants = append(srcs, src), append(wants, want)
		}
		if _, err := eng.Execute(srcs[0]); err != nil { // cold: fills the norms
			t.Fatal(err)
		}
		for round, sight := range sightings {
			for i, src := range srcs {
				got, err := eng.Execute(src)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("S %d, sighting %d", i, round+1), p, sight.how, got.Trace.Plan, got.Timing.TraversedVectors, 1+sight.traversed, wants[i], got)
			}
		}
	})
	t.Run("shard", func(t *testing.T) {
		mat := eagerBaseline(g)
		req := shardScan(p, all)
		var ss []sparse.Vector
		var wants []*Result
		for _, refs := range [][]hin.VertexID{all[:200], all[300:]} {
			s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, refs)
			if err != nil {
				t.Fatal(err)
			}
			want := ServeShardRequest(ctx, g, eagerBaseline(g), req, broadcastOf(g, s))
			ss, wants = append(ss, s), append(wants, &Result{Entries: want.Entries, Skipped: want.Skipped})
		}
		ServeShardRequest(ctx, g, mat, req, broadcastOf(g, ss[0])) // cold: fills the norms
		for round, sight := range sightings {
			for i, s := range ss {
				resp := ServeShardRequest(ctx, g, mat, req, broadcastOf(g, s))
				if resp.Err != "" {
					t.Fatal(resp.Err)
				}
				check(t, fmt.Sprintf("S %d, sighting %d", i, round+1), p, sight.how, resp.Plan, resp.Stats.TraversedVectors, sight.traversed, wants[i], &Result{Entries: resp.Entries, Skipped: resp.Skipped})
			}
		}
	})
	t.Run("spoiled", func(t *testing.T) {
		g, small, mid := bigSmallGraph(t, 1<<23) // N[big] = 2²³·S[mid]
		p := metapath.MustNew(0, 1)
		req := shardScan(p, []hin.VertexID{small})
		ss := []sparse.Vector{
			{Idx: []int32{int32(mid)}, Val: []float64{1 << 30}}, // spoiled: N[big] = 2⁵³
			{Idx: []int32{int32(mid)}, Val: []float64{3}},
		}
		var wants []*Result
		for _, sv := range ss {
			want := ServeShardRequest(ctx, g, eagerBaseline(g), req, broadcastOf(g, sv))
			wants = append(wants, &Result{Entries: want.Entries, Skipped: want.Skipped})
		}
		mat := eagerBaseline(g)
		ServeShardRequest(ctx, g, mat, req, broadcastOf(g, ss[0])) // cold: fills the norm
		for round := range sightings {
			for i, sv := range ss {
				sight := sightings[round]
				if i == 0 {
					sight = sightings[0] // a spoiled S walks every time
				}
				resp := ServeShardRequest(ctx, g, mat, req, broadcastOf(g, sv))
				if resp.Err != "" {
					t.Fatal(resp.Err)
				}
				check(t, fmt.Sprintf("S %d, sighting %d", i, round+1), p, sight.how, resp.Plan, resp.Stats.TraversedVectors, sight.traversed, wants[i], &Result{Entries: resp.Entries, Skipped: resp.Skipped})
			}
		}
		st := mat.lru
		if w, v := keptIn(st, p, ss[0]), keptIn(st, p, ss[1]); w != nil || seenIn(st, p, ss[0]) != "spoiled" || v == nil {
			t.Fatalf("the store keeps %+v for the spoiled S, noted %q, and %+v for the other, want S noted spoiled and an N", w, seenIn(st, p, ss[0]), v)
		}
	})
}

// drop removes the entry under key from st, as its eviction would.
func drop(st *sharedCacheState, key ckey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[key]; ok {
		e := el.Value.(storeEntry)
		delete(st.entries, key)
		st.order[e.ranked().class].Remove(el)
		st.bytes.Add(-e.bytes())
	}
}

// Views of one baseline read the kept N of S while it is dropped from the
// store and kept again, and the N of other S's come and go beside it, again
// and again (run under -race): every request answers the kept S's bits, from
// an entry it loaded whole or, once that was dropped, from a walk of its own.
func TestViewsGatherWhileAWalkIsKept(t *testing.T) {
	g := bibGraphOf(rand.New(rand.NewSource(13)), 600)
	all := g.VerticesOfType(mustType(t, g, "author"))
	p, err := metapath.ParseDotted(g.Schema(), "author.paper.venue")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sOf := func(refs []hin.VertexID) sparse.Vector {
		s, _, err := metapath.NewTraverser(g).SetVector(ctx, p, refs)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0 := sOf(all)
	req := shardScan(p, all)
	root := eagerBaseline(g)
	st := root.lru
	var want *ShardResponse
	for range 4 { // cold, two sightings, a read
		want = ServeShardRequest(ctx, g, root, req, broadcastOf(g, s0))
	}
	kept := keptIn(st, p, s0)
	if want.Err != "" || want.Stats.TraversedVectors != 0 || kept == nil {
		t.Fatalf("fixture: %+v, want a read of a kept N", want)
	}
	var others []*keptN // the kept N of three more S's, each kept by a baseline of its own
	for k := 1; k <= 3; k++ {
		s := sOf(all[k:])
		other := eagerBaseline(g)
		for range 2 {
			if _, _, err := other.seedValues(ctx, p, s, keyOf(p, s), other.lru.normTable(p), all); err != nil {
				t.Fatal(err)
			}
		}
		others = append(others, keptIn(other.lru, p, s))
	}
	var wg sync.WaitGroup
	for w := 0; w < 5; w++ {
		view := NewView(root)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 { // the publisher
				for i := 0; i < 20; i++ {
					o := others[i%len(others)]
					st.put(o)
					drop(st, kept.key)
					st.put(kept)
					drop(st, o.key)
				}
				return
			}
			for i := 0; i < 20; i++ {
				got := ServeShardRequest(ctx, g, view, req, broadcastOf(g, s0))
				if got.Err != "" || got.Stats.TraversedVectors > 1 {
					t.Errorf("reader %d: %+v, want a read or one walk", w, got)
					return
				}
				for j, e := range want.Entries {
					if got.Entries[j].Vertex != e.Vertex || math.Float64bits(got.Entries[j].Score) != math.Float64bits(e.Score) {
						t.Errorf("reader %d: entry %d = %+v, want %+v", w, j, got.Entries[j], e)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Whatever was kept last, the account is what the store holds.
	if got, ground := st.bytes.Load(), st.recomputeBytes(); got != ground || root.IndexBytes() != got {
		t.Fatalf("the store's account reads %d bytes, IndexBytes %d, re-summed %d", got, root.IndexBytes(), ground)
	}
}

// BenchmarkCandidateSide measures the ways candidateSide scores a NetOut
// candidate set on the baseline (DESIGN.md "Candidate side") with the
// traverser primitives it is built from, over the three whole-type scan paths
// of the serving benchmark on the scale-1 generated network and |Sc| at 1–100 %
// of the author type:
//
//   - per-vertex: one walk per candidate — Φ, its norm, its dot with S. The
//     table cannot spare it the walk: cold, the norm is stored on the way;
//     warm, it is stored again.
//   - propagated: every numerator at once, S pushed back along P⁻¹
//     (SeedVector), then per candidate a norm — cold, by a walk that
//     allocates nothing (Visibility); warm, read from the table — and a
//     division.
//   - memo (warm table only): what a repeat does once the store keeps S's
//     numerators — Materializer.seedValues finds them by S's digest (S here
//     is a copy, as a shard's decoded broadcast is) and reads N at the
//     candidates, then the same division.
//
// The crossover constant candSideMinKnown compares the warm propagated arm
// with the per-vertex arm: a path is only ever propagated for the candidates
// whose norms are known. The memo arm moves no constant: N is kept only on a
// path that already propagates.
func BenchmarkCandidateSide(b *testing.B) {
	cfg := gen.Scaled(1)
	cfg.Seed = 1
	g, _, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	author, _ := g.Schema().TypeByName("author")
	all := g.VerticesOfType(author)
	shuffled := slices.Clone(all)
	r := rand.New(rand.NewSource(17))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	lo, hi, _ := g.TypeIDSpan(author)
	ctx := context.Background()
	for _, dotted := range []string{"author.paper.venue", "author.paper.term", "author.paper.author"} {
		p, err := metapath.ParseDotted(g.Schema(), dotted)
		if err != nil {
			b.Fatal(err)
		}
		tr := metapath.NewTraverser(g)
		s, _, err := tr.SetVector(ctx, p, all)
		if err != nil {
			b.Fatal(err)
		}
		norms := make([]float64, hi-lo+1)
		for _, v := range all {
			norms[v-lo], _ = tr.Visibility(p, v)
		}
		// A baseline whose store has seen S twice, and so keeps its N.
		mat := eagerBaseline(g)
		tbl := mat.lru.normTable(p)
		for _, v := range all {
			tbl.put(v, norms[v-lo])
		}
		key := keyOf(p, s)
		for range 2 {
			if _, _, err := mat.seedValues(ctx, p, s, key, tbl, all); err != nil {
				b.Fatal(err)
			}
		}
		copied := s.Clone()
		for _, pct := range []int{1, 10, 25, 50, 100} {
			cands := slices.Clone(shuffled[:max(1, len(all)*pct/100)])
			slices.Sort(cands)
			scores := make([]float64, len(cands))
			name := fmt.Sprintf("path=%s/cands=%d%%", dotted, pct)
			for _, table := range []string{"cold", "warm"} {
				b.Run(name+"/table="+table+"/per-vertex", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for j, v := range cands {
							phi, _ := tr.NeighborVector(p, v)
							vis := phi.Norm2Sq()
							norms[v-lo] = vis
							scores[j] = phi.Dot(s) / vis
						}
					}
				})
				b.Run(name+"/table="+table+"/propagated", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						n, exact, err := tr.SeedVector(ctx, p.Reverse(), s)
						if err != nil || !exact {
							b.Fatalf("SeedVector: exact=%v err=%v", exact, err)
						}
						k := 0 // cands ascend: one cursor walks N beside them
						for j, v := range cands {
							vis := norms[v-lo]
							if table == "cold" {
								vis, _ = tr.Visibility(p, v)
								norms[v-lo] = vis
							}
							for k < len(n.Idx) && n.Idx[k] < int32(v) {
								k++
							}
							scores[j] = 0
							if k < len(n.Idx) && n.Idx[k] == int32(v) {
								scores[j] = n.Val[k] / vis
							}
						}
					}
				})
			}
			b.Run(name+"/table=warm/memo", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n, how, err := mat.seedValues(ctx, p, copied, key, tbl, cands)
					if err != nil || how != "memo" || n == nil {
						b.Fatalf("seedValues: %s, %v", how, err)
					}
					for j, v := range cands {
						scores[j] = n[j] / norms[v-lo]
					}
				}
			})
		}
	}
}
