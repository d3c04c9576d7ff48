package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"netout"
)

// workload is one traffic mix with the server topology it is served by. Its
// request list is fixed once built and replayed identically in every
// segment, so a segment is a fixed amount of work, not a fixed time.
type workload struct {
	name string
	// conns is the closed-loop connection count (never above nproc = 2);
	// request i of the list is sent on connection i mod conns.
	conns int
	// flags configure the process that answers /query, beside commonFlags.
	flags []string
	// shards is the number of -shard-serve processes behind it.
	shards int
	// cacheMB is the -cache-mb of the cached strategy; 0 means baseline.
	cacheMB int
	// layerN is how many requests the in-process layer pass replays.
	layerN   int
	requests []string
}

// commonFlags are given to every server process, after -net <tsv>.
var commonFlags = []string{"-measure", "netout", "-combine", "average", "-quiet"}

// features are the six overlapping feature paths of the repository's
// BenchmarkWorkload, in its order: short paths are prefixes of longer ones.
var features = []string{
	"author.paper.venue",
	"author.paper.venue.paper.author",
	"author.paper.venue.paper.author.paper.venue",
	"author.paper.author",
	"author.paper.author.paper.venue",
	"author.paper.author.paper.term",
}

// scanFeatures are the JUDGED BY clauses of the whole-type scans, and
// scanPattern the order they recur in (5 venue, 2 term, 9 author, 4
// venue+term per 20). The mix is uneven on purpose: term and author scans
// cost about the same and swap order from graph to graph, and with equal
// shares the median of a segment is the slowest sample of one of them — an
// extreme, the least repeatable statistic there is. With this mix p50 falls
// inside the author scans and p90 inside the two-path scans for either order.
var (
	scanFeatures = []string{
		"author.paper.venue",
		"author.paper.term",
		"author.paper.author",
		"author.paper.venue : 2.0, author.paper.term",
	}
	scanPattern = []int{2, 0, 2, 1, 2, 3, 2, 0, 2, 3, 2, 0, 2, 1, 2, 3, 0, 2, 3, 0}
)

const (
	graphScale  = 4
	strataCount = 100
	// strataTop drops the 2% of authors with the costliest queries: a few of
	// them are two orders of magnitude costlier than the rest, and whether a
	// seed draws one would decide the run's mean.
	strataTop  = 0.98
	warmLen    = 5000
	spillLen   = 600
	scanLen    = 100
	anchorZipf = 0.9
	featZipf   = 0.7
)

// workloads builds the four workloads over g, in BENCHMARK.json's order;
// why each was chosen is written there. div shortens every list (-smoke uses
// 10). All randomness comes from seed.
func workloads(g *netout.Graph, seed int64, div int) []*workload {
	st := authorStrata(g)
	scan := scanRequests(scanLen / div)
	return []*workload{
		{
			name:  "zipf_warm",
			conns: 2, cacheMB: 64, layerN: 200,
			flags:    []string{"-strategy", "cached", "-subpath-cache", "-cache-mb", "64", "-workers", "2"},
			requests: warmRequests(st, rand.New(rand.NewSource(seed)), warmLen/div),
		},
		{
			name:  "zipf_spill",
			conns: 1, cacheMB: 1, layerN: 200,
			flags:    []string{"-strategy", "cached", "-subpath-cache", "-cache-mb", "1", "-workers", "1"},
			requests: spillRequests(st, rand.New(rand.NewSource(seed+1)), spillLen/div),
		},
		{
			name:  "scan_local",
			conns: 1, layerN: 20,
			flags:    []string{"-strategy", "baseline", "-workers", "1", "-parallelism", "2"},
			requests: scan,
		},
		{
			name:  "scan_shards",
			conns: 1, shards: 2, layerN: 20,
			flags:    []string{"-workers", "1"},
			requests: scan,
		},
	}
}

// authorStrata sorts the authors that have at least one paper by a cost key
// (ties by name), drops the top tail and cuts the rest into strataCount
// equal-count strata. Requests name a stratum by design and the seed picks
// the author inside it, so every seed sees the same distribution of query
// cost over a different graph and different authors.
//
// The key is what the cost of FROM author{A}.paper.author grows with: the
// number of candidate vectors |C(A)|, and the width of the widest of them —
// the authors behind the venues of A's candidates, which is what the
// venue-mediated feature paths materialize and the reference aggregate
// allocates. With |C| alone as the key, allocation per query differed by
// ±9% between seeds; with this one by ±3%.
func authorStrata(g *netout.Graph) [][]string {
	at, _ := g.Schema().TypeByName("author")
	pt, _ := g.Schema().TypeByName("paper")
	vt, _ := g.Schema().TypeByName("venue")
	authors, venues := g.VerticesOfType(at), g.VerticesOfType(vt)
	index := func(vs []netout.VertexID) map[netout.VertexID]int {
		m := make(map[netout.VertexID]int, len(vs))
		for i, v := range vs {
			m[v] = i
		}
		return m
	}
	authorAt, venueAt := index(authors), index(venues)
	// venuesOf[a] are the venues author a has published in, authorsOf[v] the
	// authors that have published in venue v, both as bitsets.
	venuesOf, authorsOf := make([]bitset, len(authors)), make([]bitset, len(venues))
	for i := range venuesOf {
		venuesOf[i] = newBitset(len(venues))
	}
	for i := range authorsOf {
		authorsOf[i] = newBitset(len(authors))
	}
	for i, a := range authors {
		papers, _ := g.Neighbors(a, pt)
		for _, p := range papers {
			vs, _ := g.Neighbors(p, vt)
			for _, v := range vs {
				venuesOf[i].set(venueAt[v])
				authorsOf[venueAt[v]].set(i)
			}
		}
	}
	type keyed struct {
		name string
		key  int
	}
	var all []keyed
	cands, reachVenues, reach := newBitset(len(authors)), newBitset(len(venues)), newBitset(len(authors))
	for _, a := range authors {
		cands.clear()
		reachVenues.clear()
		reach.clear()
		papers, _ := g.Neighbors(a, pt)
		for _, p := range papers {
			coauthors, _ := g.Neighbors(p, at)
			for _, c := range coauthors {
				cands.set(authorAt[c])
			}
		}
		if cands.count() == 0 {
			continue
		}
		cands.each(func(c int) { reachVenues.or(venuesOf[c]) })
		reachVenues.each(func(v int) { reach.or(authorsOf[v]) })
		all = append(all, keyed{g.Name(a), reach.count() + 100*cands.count()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].name < all[j].name
	})
	all = all[:int(float64(len(all))*strataTop)]
	out := make([][]string, strataCount)
	for s := range out {
		for _, a := range all[s*len(all)/strataCount : (s+1)*len(all)/strataCount] {
			out[s] = append(out[s], a.name)
		}
	}
	return out
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) clear() { clear(b) }

func (b bitset) or(o bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls f with every set bit, ascending.
func (b bitset) each(f func(int)) {
	for i, w := range b {
		for ; w != 0; w &= w - 1 {
			f(i*64 + bits.TrailingZeros64(w))
		}
	}
}

func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// apportion splits total into whole counts proportional to w by the
// largest-remainder rule: the expected counts of total draws from w, with
// the sampling noise of the draws removed.
func apportion(w []float64, total int) []int {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	counts := make([]int, len(w))
	order := make([]int, len(w))
	rem := make([]float64, len(w))
	used := 0
	for i, x := range w {
		q := x / sum * float64(total)
		counts[i] = int(q)
		rem[i] = q - float64(counts[i])
		order[i] = i
		used += counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:total-used] {
		counts[i]++
	}
	return counts
}

func anchorQuery(anchor, feature string) string {
	return fmt.Sprintf("FIND OUTLIERS FROM author{%q}.paper.author JUDGED BY %s TOP 10;", anchor, feature)
}

// warmRequests is the Zipf(0.9) × Zipf(0.7) stream over 100 anchors and the
// six features, as its expected counts per (anchor, feature) cell in seeded
// order. Anchor rank r comes from stratum (37r+11) mod 100, so popular
// anchors are spread over small and large candidate sets alike.
func warmRequests(strata [][]string, r *rand.Rand, n int) []string {
	anchors := make([]string, strataCount)
	for rank := range anchors {
		s := strata[(rank*37+11)%strataCount]
		anchors[rank] = s[r.Intn(len(s))]
	}
	aw, fw := zipfWeights(len(anchors), anchorZipf), zipfWeights(len(features), featZipf)
	cells := make([]float64, 0, len(aw)*len(fw))
	for _, a := range aw {
		for _, f := range fw {
			cells = append(cells, a*f)
		}
	}
	out := make([]string, 0, n)
	for cell, c := range apportion(cells, n) {
		for ; c > 0; c-- {
			out = append(out, anchorQuery(anchors[cell/len(fw)], features[cell%len(fw)]))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spillRequests spreads n requests over the strata evenly within each
// feature (features in Zipf(0.7) shares) and draws a fresh author for every
// request, so nearly every anchor is distinct and the 1 MiB cache churns.
func spillRequests(strata [][]string, r *rand.Rand, n int) []string {
	out := make([]string, 0, n)
	for f, c := range apportion(zipfWeights(len(features), featZipf), n) {
		for j := 0; j < c; j++ {
			s := strata[(j*strataCount/c+17*f)%strataCount]
			out = append(out, anchorQuery(s[r.Intn(len(s))], features[f]))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func scanRequests(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "FIND OUTLIERS FROM author JUDGED BY " + scanFeatures[scanPattern[i%len(scanPattern)]] + " TOP 25;"
	}
	return out
}

// generate builds the seed's graph: gen.Scaled(4) with that seed.
func generate(seed int64) (*netout.Graph, error) {
	cfg := netout.ScaledGenConfig(graphScale)
	cfg.Seed = seed
	g, _, err := netout.Generate(cfg)
	return g, err
}
