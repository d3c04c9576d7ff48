package metapath

import (
	"fmt"
	"math/rand"
	"testing"

	"netout/internal/gen"
	"netout/internal/hin"
	"netout/internal/sparse"
)

// BenchmarkExpand times the pull kernel's two bodies, whatever the pair's own
// row length would pick, on a frontier that is all of its type: the evidence
// for hin's flatRowMean (DESIGN.md "Expansion kernels"; `make bench-json`
// distills the rows into BENCH_kernel.json beside the root BenchmarkExpand's).
// The hop= rows are the six type pairs of the scale-4 generator graph the
// serving benchmark uses; the synthetic rows sweep the mean row length of one
// pair of 32 768 entries from 1 to 64, rows of uneven length (1 … 2·mean−1)
// over random neighbours, with all multiplicities 1 (the flat body's
// shortcut) and with 1–3.
func BenchmarkExpand(b *testing.B) {
	cfg := gen.Scaled(4)
	cfg.Seed = 1
	g, _, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := g.Schema()
	for from := hin.TypeID(0); int(from) < s.NumTypes(); from++ {
		for _, to := range s.AllowedFrom(from) {
			benchPullBodies(b, g, from, to, fmt.Sprintf("hop=%s.%s", s.TypeName(from), s.TypeName(to)))
		}
	}
	for _, mean := range []int{1, 2, 4, 6, 8, 12, 16, 32, 64} {
		for _, mult := range []string{"unit", "mixed"} {
			g, from, to := unevenPair(b, 4096, 32768/mean, mean, mult == "mixed")
			benchPullBodies(b, g, from, to, "hop=synthetic/mult="+mult)
		}
	}
}

// benchPullBodies runs pullRows over the whole pair behind the hop from → to,
// once without the pair's Row (a register sum per row) and once with it (flat).
func benchPullBodies(b *testing.B, g *hin.Graph, from, to hin.TypeID, name string) {
	frontier := sparse.Vector{}
	for i, v := range g.VerticesOfType(from) {
		frontier.Idx, frontier.Val = append(frontier.Idx, int32(v)), append(frontier.Val, float64(i%5+1))
	}
	in, lo, ok := NewTraverser(g).scatterIn(frontier)
	if !ok {
		b.Fatalf("%s: scatterIn refused a whole type", name)
	}
	rows := g.Pair(to, from)
	out := make([]float64, len(rows.Off)-1)
	flat := rows
	rows.Row, flat.Row = nil, make([]int32, len(rows.Nbr))
	for i := range out {
		for j := rows.Off[i]; j < rows.Off[i+1]; j++ {
			flat.Row[j] = int32(i)
		}
	}
	name = fmt.Sprintf("%s/row=%.1f", name, float64(len(rows.Nbr))/float64(len(out)))
	for _, arm := range []struct {
		name string
		pair hin.Pair
	}{{"rows", rows}, {"flat", flat}} {
		b.Run(name+"/pull="+arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pullRows(arm.pair, 0, in, lo, out)
			}
		})
	}
}

// unevenPair builds nSrc sources and nDst targets, target i linked to between
// 1 and 2·mean−1 random distinct sources.
func unevenPair(tb testing.TB, nSrc, nDst, mean int, mixed bool) (g *hin.Graph, src, dst hin.TypeID) {
	s := hin.MustSchema("src", "dst")
	s.AllowLink(0, 1)
	bld := hin.NewBuilder(s)
	for i := 0; i < nSrc; i++ {
		bld.MustAddVertex(0, fmt.Sprintf("s%d", i))
	}
	r := rand.New(rand.NewSource(int64(mean)))
	pick := r.Perm(nSrc)
	for i := 0; i < nDst; i++ {
		d := bld.MustAddVertex(1, fmt.Sprintf("d%d", i))
		for j, n := 0, 1+r.Intn(2*mean-1); j < n; j++ {
			k := j + r.Intn(nSrc-j) // a partial shuffle: distinct sources per row
			pick[j], pick[k] = pick[k], pick[j]
			m := int32(1)
			if mixed {
				m += int32(r.Intn(3))
			}
			if err := bld.AddEdgeMult(hin.VertexID(pick[j]), d, m); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return bld.Build(), 0, 1
}
