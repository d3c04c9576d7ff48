// Benchmarks regenerating the paper's evaluation, one benchmark per table
// and figure. The graph fixture is a synthetic DBLP-like network (scale 1
// by default; set NETOUT_BENCH_SCALE to grow it). Run:
//
//	go test -bench=. -benchmem
//
// Figure/table mapping:
//
//	BenchmarkTable2Toy        — Table 2 (toy measure comparison)
//	BenchmarkTable3Measures   — Table 3 (hub query under the 3 measures)
//	BenchmarkTable5Queries    — Table 5 (the three case-study queries)
//	BenchmarkFig3Strategies   — Figure 3 (Q1-Q3 × Baseline/PM/SPM, per query)
//	BenchmarkFig4Breakdown    — Figure 4 (SPM stage breakdown, metrics reported)
//	BenchmarkFig5Threshold    — Figure 5 (SPM threshold sweep, index bytes reported)
//	BenchmarkLOFBaseline      — Section 8 (LOF over candidate vectors)
//	BenchmarkPMBuild/SPMBuild — index construction cost (setup phase of Fig 3)
package netout_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"netout"
	"netout/internal/sparse"
)

type benchFixture struct {
	graph    *netout.Graph
	manifest *netout.Manifest
	// 100 instantiated queries per template name.
	sets map[string][]string
	pm   netout.Materializer
	spm  map[string]netout.Materializer // per template, θ=0.01
}

var (
	fixtureOnce sync.Once
	fixture     *benchFixture
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		scale := 1
		if s := os.Getenv("NETOUT_BENCH_SCALE"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				scale = v
			}
		}
		cfg := netout.ScaledGenConfig(scale)
		cfg.Seed = 1
		g, man, err := netout.Generate(cfg)
		if err != nil {
			panic(err)
		}
		names, err := netout.RandomVertexNames(g, "author", 100, 42)
		if err != nil {
			panic(err)
		}
		f := &benchFixture{
			graph:    g,
			manifest: man,
			sets:     map[string][]string{},
			spm:      map[string]netout.Materializer{},
		}
		for _, tpl := range netout.PaperTemplates() {
			f.sets[tpl.Name] = netout.BuildQuerySet(tpl, names)
		}
		f.pm = netout.NewPM(g)
		for name, qs := range f.sets {
			spm, err := netout.NewSPM(g, qs, netout.SPMConfig{Threshold: 0.01})
			if err != nil {
				panic(err)
			}
			f.spm[name] = spm
		}
		fixture = f
	})
	return fixture
}

// toyVectors builds the Table 1 candidate and reference vectors.
func toyVectors() (cands, refs []netout.Vector) {
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
	for _, rec := range [][4]float64{
		{10, 10, 1, 1}, {0, 1, 20, 20}, {0, 5, 10, 10}, {0, 0, 0, 2}, {0, 0, 0, 30},
	} {
		cands = append(cands, vec(rec))
	}
	refs = make([]netout.Vector, 100)
	for i := range refs {
		refs[i] = vec([4]float64{10, 10, 1, 1})
	}
	return
}

// BenchmarkTable2Toy measures scoring the Table 1 toy data under each
// measure (Table 2).
func BenchmarkTable2Toy(b *testing.B) {
	cands, refs := toyVectors()
	for _, m := range []netout.Measure{netout.MeasureNetOut, netout.MeasurePathSim, netout.MeasureCosSim} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = netout.ScoreVectors(m, cands, refs)
			}
		})
	}
}

// BenchmarkTable3Measures runs the hub-coauthor venue query under each
// measure (Table 3).
func BenchmarkTable3Measures(b *testing.B) {
	f := getFixture(b)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 5;`, f.manifest.Hub)
	for _, m := range []netout.Measure{netout.MeasureNetOut, netout.MeasurePathSim, netout.MeasureCosSim} {
		b.Run(m.String(), func(b *testing.B) {
			eng := netout.NewEngine(f.graph, netout.WithMeasure(m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5Queries runs the three case-study queries (Table 5).
func BenchmarkTable5Queries(b *testing.B) {
	f := getFixture(b)
	queries := map[string]string{
		"HubByVenue":    fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, f.manifest.Hub),
		"HubByCoauthor": fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.author TOP 10;`, f.manifest.Hub),
		"VenueAuthors":  fmt.Sprintf(`FIND OUTLIERS FROM venue{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, f.manifest.MainVenue),
	}
	for name, src := range queries {
		b.Run(name, func(b *testing.B) {
			eng := netout.NewEngine(f.graph)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Strategies measures per-query execution time for each
// template under each strategy (Figure 3).
func BenchmarkFig3Strategies(b *testing.B) {
	f := getFixture(b)
	for _, tpl := range netout.PaperTemplates() {
		qs := f.sets[tpl.Name]
		strategies := map[string]func() netout.Materializer{
			"Baseline": func() netout.Materializer { return netout.NewBaseline(f.graph) },
			"PM":       func() netout.Materializer { return f.pm },
			"SPM":      func() netout.Materializer { return f.spm[tpl.Name] },
			"Cached": func() netout.Materializer {
				mat, err := netout.NewCached(f.graph, 64<<20)
				if err != nil {
					panic(err)
				}
				return mat
			},
		}
		for _, strat := range []string{"Baseline", "PM", "SPM", "Cached"} {
			b.Run(tpl.Name+"/"+strat, func(b *testing.B) {
				eng := netout.NewEngine(f.graph, netout.WithMaterializer(strategies[strat]()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Execute(qs[i%len(qs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4Breakdown runs the Q1 set under SPM and reports the stage
// shares as custom metrics (Figure 4).
func BenchmarkFig4Breakdown(b *testing.B) {
	f := getFixture(b)
	qs := f.sets["Q1"]
	eng := netout.NewEngine(f.graph, netout.WithMaterializer(f.spm["Q1"]))
	var agg netout.Timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Execute(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		agg.NotIndexed += res.Timing.NotIndexed
		agg.Indexed += res.Timing.Indexed
		agg.Scoring += res.Timing.Scoring
	}
	b.ReportMetric(float64(agg.NotIndexed.Nanoseconds())/float64(b.N), "notIndexed-ns/op")
	b.ReportMetric(float64(agg.Indexed.Nanoseconds())/float64(b.N), "indexed-ns/op")
	b.ReportMetric(float64(agg.Scoring.Nanoseconds())/float64(b.N), "scoring-ns/op")
}

// BenchmarkFig5Threshold measures per-query time for the Q1 set at each SPM
// threshold, reporting the index size as a metric (Figure 5).
func BenchmarkFig5Threshold(b *testing.B) {
	f := getFixture(b)
	qs := f.sets["Q1"]
	for _, th := range []float64{0.001, 0.01, 0.05, 0.1} {
		b.Run(fmt.Sprintf("theta=%g", th), func(b *testing.B) {
			spm, err := netout.NewSPM(f.graph, qs, netout.SPMConfig{Threshold: th})
			if err != nil {
				b.Fatal(err)
			}
			eng := netout.NewEngine(f.graph, netout.WithMaterializer(spm))
			b.ReportMetric(float64(spm.IndexBytes()), "index-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLOFBaseline measures LOF over the hub candidate vectors
// (Section 8's comparison).
func BenchmarkLOFBaseline(b *testing.B) {
	f := getFixture(b)
	eng := netout.NewEngine(f.graph)
	q, err := netout.ParseQuery(fmt.Sprintf(
		`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, f.manifest.Hub))
	if err != nil {
		b.Fatal(err)
	}
	cands, err := eng.EvalSet(q.From)
	if err != nil {
		b.Fatal(err)
	}
	tr := netout.NewTraverser(f.graph)
	p, _ := netout.ParseMetaPath(f.graph.Schema(), "author.paper.venue")
	var vecs []netout.Vector
	for _, v := range cands {
		vec, err := tr.NeighborVector(p, v)
		if err != nil {
			b.Fatal(err)
		}
		vecs = append(vecs, vec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netout.LOFScores(vecs, netout.LOFOptions{K: 5, Distance: netout.CosineDistance}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPMBuild measures full pre-materialization (the offline phase of
// Figure 3's PM strategy).
func BenchmarkPMBuild(b *testing.B) {
	f := getFixture(b)
	for i := 0; i < b.N; i++ {
		mat := netout.NewPM(f.graph)
		b.ReportMetric(float64(mat.IndexBytes()), "index-bytes")
	}
}

// BenchmarkSPMBuild measures selective pre-materialization at θ=0.01.
func BenchmarkSPMBuild(b *testing.B) {
	f := getFixture(b)
	qs := f.sets["Q1"]
	for i := 0; i < b.N; i++ {
		mat, err := netout.NewSPM(f.graph, qs, netout.SPMConfig{Threshold: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mat.IndexBytes()), "index-bytes")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the core primitives.

func BenchmarkNeighborVector(b *testing.B) {
	f := getFixture(b)
	tr := netout.NewTraverser(f.graph)
	author, _ := f.graph.Schema().TypeByName("author")
	hub, _ := f.graph.VertexByName(author, f.manifest.Hub)
	for _, dotted := range []string{"author.paper.venue", "author.paper.author", "author.paper.term"} {
		p, err := netout.ParseMetaPath(f.graph.Schema(), dotted)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(dotted, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.NeighborVector(p, hub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The indexed strategies on a 4-hop path: two chunks, each combined from
	// the index (SPM: Q1's vertices; the rest traversed).
	p, err := netout.ParseMetaPath(f.graph.Schema(), "author.paper.author.paper.venue")
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []struct {
		name string
		mat  netout.Materializer
	}{{"PM", f.pm}, {"SPM", f.spm["Q1"]}} {
		b.Run(s.name+"/author.paper.author.paper.venue", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.mat.NeighborVector(p, hub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpand compares the frontier-expansion kernels on one hop. The
// nnz rows (author frontier → paper on the fixture graph) are the evidence
// for the dense and map choice, with merge at the one row it scales; the
// hop/nnz rows repeat that row over the scale-4 generator graph the serving
// benchmark uses, where a row is 2.5, 1 or 291 entries long. The hop/share rows are the evidence for the
// pull crossover (pullEdgeGain, DESIGN.md "Expansion kernels"): dense against
// pull at a random 5, 10, 25, 50 and 100 % of the source type on the three
// hops a whole-type scan walks, over the same graph. `make bench-json`
// distills this (plus BenchmarkPathIndexProbe) into BENCH_kernel.json.
func BenchmarkExpand(b *testing.B) {
	f := getFixture(b)
	author, _ := f.graph.Schema().TypeByName("author")
	paper, _ := f.graph.Schema().TypeByName("paper")
	// frontier draws n vertices of a type (all of them past its size), in
	// ascending order with weights 1–5.
	frontier := func(g *netout.Graph, t netout.TypeID, n int, seed int64) netout.Vector {
		// Clone: VerticesOfType aliases the graph's internal per-type list, and
		// the shuffle below must not disturb its sorted order.
		vs := slices.Clone(g.VerticesOfType(t))
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		n = min(n, len(vs))
		idx := make([]int32, n)
		for i := 0; i < n; i++ {
			idx[i] = int32(vs[i])
		}
		slices.Sort(idx)
		val := make([]float64, n)
		for i := range val {
			val[i] = float64(i%5 + 1)
		}
		return netout.Vector{Idx: idx, Val: val}
	}
	run := func(name string, g *netout.Graph, k netout.ExpandKernel, fr netout.Vector, to netout.TypeID) {
		b.Run(fmt.Sprintf("%s/%v", name, k), func(b *testing.B) {
			tr := netout.NewTraverser(g)
			tr.SetKernel(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tr.Expand(fr, to)
			}
		})
	}
	for _, size := range []int{1, 4, 32, 256, 2048} {
		fr := frontier(f.graph, author, size, 11)
		kernels := []netout.ExpandKernel{netout.KernelMap, netout.KernelDense}
		if size == 1 {
			kernels = append(kernels, netout.KernelMerge)
		} else {
			kernels = append(kernels, netout.KernelPull)
		}
		for _, k := range kernels {
			run(fmt.Sprintf("nnz=%d", fr.NNZ()), f.graph, k, fr, paper)
		}
	}

	cfg := netout.ScaledGenConfig(4)
	cfg.Seed = 1
	g, _, err := netout.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, hop := range [][2]string{{"author", "paper"}, {"paper", "venue"}, {"venue", "paper"}} {
		from, _ := g.Schema().TypeByName(hop[0])
		to, _ := g.Schema().TypeByName(hop[1])
		name := fmt.Sprintf("hop=%s.%s", hop[0], hop[1])
		fr := frontier(g, from, 1, 11)
		for _, k := range []netout.ExpandKernel{netout.KernelDense, netout.KernelMerge} {
			run(name+"/nnz=1", g, k, fr, to)
		}
		for _, share := range []int{5, 10, 25, 50, 100} {
			fr := frontier(g, from, (g.NumVerticesOfType(from)*share+99)/100, 11)
			for _, k := range []netout.ExpandKernel{netout.KernelDense, netout.KernelPull} {
				run(fmt.Sprintf("%s/share=%d", name, share), g, k, fr, to)
			}
		}
	}
}

// BenchmarkReferenceSide is the evidence behind referenceSide's "never more
// work" rule on traversal-only materializers: the reference aggregate
// S = Σ_{v∈Sr} Φ_P(v) computed the per-vertex way (one NeighborVector per
// reference, then sparse.Sum) against one set-frontier propagation
// (Traverser.SetVector), at |Sr| = 1, 8, 64 and the whole author type, on
// 2-, 4- and 6-hop feature paths. `make bench-json` distills this into
// BENCH_kernel.json.
func BenchmarkReferenceSide(b *testing.B) {
	f := getFixture(b)
	author, _ := f.graph.Schema().TypeByName("author")
	all := f.graph.VerticesOfType(author)
	shuffled := slices.Clone(all)
	r := rand.New(rand.NewSource(13))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, dotted := range []string{
		"author.paper.venue",
		"author.paper.venue.paper.author",
		"author.paper.author.paper.venue.paper.author",
	} {
		p, err := netout.ParseMetaPath(f.graph.Schema(), dotted)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{1, 8, 64, len(all)} {
			refs := slices.Clone(shuffled[:n])
			slices.Sort(refs)
			name := fmt.Sprintf("hops=%d/refs=%d", p.Hops(), n)
			b.Run(name+"/per-vertex", func(b *testing.B) {
				tr := netout.NewTraverser(f.graph)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					vecs := make([]netout.Vector, len(refs))
					for j, v := range refs {
						vecs[j], _ = tr.NeighborVector(p, v)
					}
					benchSink = sparse.Sum(vecs)
				}
			})
			b.Run(name+"/propagation", func(b *testing.B) {
				tr := netout.NewTraverser(f.graph)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, exact, err := tr.SetVector(context.Background(), p, refs)
					if err != nil || !exact {
						b.Fatalf("SetVector: exact=%v err=%v", exact, err)
					}
					benchSink = s
				}
			})
		}
	}
}

// benchSink keeps benchmarked results alive.
var benchSink netout.Vector

// BenchmarkQuery measures one full query end to end — all authors as both
// candidate and reference set, ranked under each measure — on the scale-1
// fixture with the baseline materializer. The engine's intra-query pipeline
// defaults to GOMAXPROCS workers, so running with -cpu 1,2,4 measures its
// scaling directly (at -cpu 1 the pipeline collapses to the sequential
// path). `make bench-json` distills this into BENCH_query.json.
func BenchmarkQuery(b *testing.B) {
	f := getFixture(b)
	src := `FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 25;`
	for _, m := range []netout.Measure{netout.MeasureNetOut, netout.MeasurePathSim, netout.MeasureCosSim} {
		b.Run(m.String(), func(b *testing.B) {
			eng := netout.NewEngine(f.graph, netout.WithMeasure(m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParseQuery(b *testing.B) {
	src := `FIND OUTLIERS
FROM venue{"SIGMOD"}.paper.author AS A WHERE COUNT(A.paper) >= 5
COMPARED TO venue{"KDD"}.paper.author
JUDGED BY author.paper.author, author.paper.term : 3.0
TOP 50;`
	for i := 0; i < b.N; i++ {
		if _, err := netout.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseDot(b *testing.B) {
	f := getFixture(b)
	tr := netout.NewTraverser(f.graph)
	author, _ := f.graph.Schema().TypeByName("author")
	hub, _ := f.graph.VertexByName(author, f.manifest.Hub)
	p, _ := netout.ParseMetaPath(f.graph.Schema(), "author.paper.author")
	v, err := tr.NeighborVector(p, hub)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Dot(v)
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for design choices called out in DESIGN.md.

// BenchmarkAblationCombination compares the two multi-path combination
// modes of Section 5.1 on a two-feature query.
func BenchmarkAblationCombination(b *testing.B) {
	f := getFixture(b)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author
JUDGED BY author.paper.venue, author.paper.author : 2.0 TOP 10;`, f.manifest.Hub)
	for _, c := range []netout.Combination{netout.CombineAverage, netout.CombineConcat} {
		b.Run(c.String(), func(b *testing.B) {
			eng := netout.NewEngine(f.graph, netout.WithCombination(c))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBatchWorkers measures batch throughput scaling with the
// worker pool size over the Q1 query set (shared PM index).
func BenchmarkAblationBatchWorkers(b *testing.B) {
	f := getFixture(b)
	qs := f.sets["Q1"]
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := netout.NewEngine(f.graph, netout.WithMaterializer(f.pm))
			for i := 0; i < b.N; i++ {
				results, err := netout.ExecuteBatch(eng, qs, netout.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, br := range results {
					if br.Err != nil {
						b.Fatal(br.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationSharedCache replays a serving workload — 96 requests
// round-robin over 12 popular Q1 queries — on an 8-worker pool twice: once
// with one cached materializer shared warm across the workers (views), and
// once with a cold private cache per worker. Requests for the same query
// land on different workers, so only the shared arm turns one worker's
// traversals into every other worker's hits; that shows up as a higher hit
// rate (hit-pct metric) and lower wall-clock per pass.
func BenchmarkAblationSharedCache(b *testing.B) {
	f := getFixture(b)
	distinct := f.sets["Q1"][:12]
	workload := make([]string, 96)
	for i := range workload {
		workload[i] = distinct[i%len(distinct)]
	}
	// Shuffle with a fixed seed and stripe statically across workers, so
	// repeats of one query genuinely land on different workers (a dynamic
	// unbuffered channel would let one hot worker absorb the whole stream
	// and quietly serialize both arms).
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(workload), func(i, j int) { workload[i], workload[j] = workload[j], workload[i] })
	const workers = 8
	runPool := func(b *testing.B, engines []*netout.Engine) {
		var wg sync.WaitGroup
		for w, eng := range engines {
			wg.Add(1)
			go func(w int, eng *netout.Engine) {
				defer wg.Done()
				for i := w; i < len(workload); i += workers {
					if _, err := eng.Execute(workload[i]); err != nil {
						b.Error(err)
						return
					}
				}
			}(w, eng)
		}
		wg.Wait()
	}
	hitPct := func(stats []netout.CacheStats) float64 {
		var agg netout.CacheStats
		for _, cs := range stats {
			agg.Hits += cs.Hits
			agg.Misses += cs.Misses
		}
		return 100 * agg.HitRate()
	}

	b.Run("shared", func(b *testing.B) {
		var last []netout.CacheStats
		for i := 0; i < b.N; i++ {
			mat, err := netout.NewCached(f.graph, 64<<20)
			if err != nil {
				b.Fatal(err)
			}
			engines := make([]*netout.Engine, workers)
			for w := range engines {
				view, err := netout.NewMaterializerView(mat)
				if err != nil {
					b.Fatal(err)
				}
				engines[w] = netout.NewEngine(f.graph, netout.WithMaterializer(view))
			}
			runPool(b, engines)
			cs, _ := netout.CacheStatsOf(mat)
			last = []netout.CacheStats{cs}
		}
		b.ReportMetric(hitPct(last), "hit-pct")
	})
	b.Run("cold-per-worker", func(b *testing.B) {
		var last []netout.CacheStats
		for i := 0; i < b.N; i++ {
			engines := make([]*netout.Engine, workers)
			mats := make([]netout.Materializer, workers)
			for w := range engines {
				mat, err := netout.NewCached(f.graph, 64<<20)
				if err != nil {
					b.Fatal(err)
				}
				mats[w] = mat
				engines[w] = netout.NewEngine(f.graph, netout.WithMaterializer(mat))
			}
			runPool(b, engines)
			last = last[:0]
			for _, m := range mats {
				cs, _ := netout.CacheStatsOf(m)
				last = append(last, cs)
			}
		}
		b.ReportMetric(hitPct(last), "hit-pct")
	})
}

// BenchmarkAblationProgressiveChunk measures the progressive executor at
// different chunk sizes against the exact Equation (1) execution.
func BenchmarkAblationProgressiveChunk(b *testing.B) {
	f := getFixture(b)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue TOP 10;`, f.manifest.Hub)
	b.Run("exact", func(b *testing.B) {
		eng := netout.NewEngine(f.graph)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, chunk := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("progressive/chunk=%d", chunk), func(b *testing.B) {
			eng := netout.NewEngine(f.graph)
			for i := 0; i < b.N; i++ {
				if _, err := eng.ExecuteProgressive(src, netout.ProgressiveOptions{ChunkSize: chunk}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplain measures the per-candidate explanation cost.
func BenchmarkExplain(b *testing.B) {
	f := getFixture(b)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, f.manifest.Hub)
	eng := netout.NewEngine(f.graph)
	for i := 0; i < b.N; i++ {
		if _, err := eng.Explain(src, f.manifest.Hub, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuggestFeatures measures the query-suggestion sweep.
func BenchmarkSuggestFeatures(b *testing.B) {
	f := getFixture(b)
	src := fmt.Sprintf(`FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY author.paper.venue;`, f.manifest.Hub)
	eng := netout.NewEngine(f.graph, netout.WithMaterializer(f.pm))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SuggestFeatures(src, 2); err != nil {
			b.Fatal(err)
		}
	}
}
