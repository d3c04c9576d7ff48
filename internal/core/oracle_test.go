package core

// An oracle for Definitions 9–10 that shares no code with the engine: path
// counts come from plain loops over hin.Graph adjacency into dense rows of
// math/big integers, connectivities from float64 dots of those rows, sums of
// quotients from big.Float. Nothing here imports internal/sparse or
// internal/metapath, so "bit-identical to the sequential path" stops being
// the only thing the executors are held to.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"netout/internal/hin"
)

// oraclePrec is the working precision of the oracle's non-integer arithmetic:
// enough that rounding its results to float64 is rounding the exact value
// (a quotient of two integers below 2⁵³ is never within 2⁻¹⁰⁶ of a float64
// midpoint, so even the exact-equality case survives the double rounding).
const oraclePrec = 256

var twoTo53 = new(big.Int).Lsh(big.NewInt(1), 53)

// oracleFeatures draws feature paths from t0 as type sequences: one
// unweighted path (weight 1, so the engine's weighted mean of one score is
// that score's bits), or two to three weighted ones.
func oracleFeatures(r *rand.Rand, g *hin.Graph, single bool) (clause string, paths [][]hin.TypeID, weights []float64) {
	s := g.Schema()
	n := 1
	if !single {
		n = 2 + r.Intn(2)
	}
	var parts []string
	for ; n > 0; n-- {
		types := []hin.TypeID{0}
		for hops := 1 + r.Intn(4); hops > 0; hops-- {
			next := s.AllowedFrom(types[len(types)-1])
			types = append(types, next[r.Intn(len(next))])
		}
		dotted := make([]string, len(types))
		for i, ty := range types {
			dotted[i] = s.TypeName(ty)
		}
		w := 1.0
		if !single {
			w = float64(1+r.Intn(8)) / 2
		}
		parts = append(parts, fmt.Sprintf("%s : %g", strings.Join(dotted, "."), w))
		paths = append(paths, types)
		weights = append(weights, w)
	}
	return strings.Join(parts, ", "), paths, weights
}

// oracleRows is the commuting matrix of the path restricted to the rows of
// src, dense over the path's target type: rows[i][c] counts the path
// instances from src[i] to the c-th vertex of that type, edge multiplicities
// multiplied along each instance. Every count is checked to lie inside 2⁵³,
// where the engine promises exact arithmetic, and handed back as a float64
// that holds it exactly. pos[v] is v's index among the vertices of its type.
func oracleRows(t *testing.T, g *hin.Graph, types []hin.TypeID, src []hin.VertexID, pos []int) [][]float64 {
	t.Helper()
	rows := make([][]float64, len(src))
	for i, v := range src {
		cur := make([]*big.Int, g.NumVerticesOfType(types[0]))
		cur[pos[v]] = big.NewInt(1)
		for h := 1; h < len(types); h++ {
			next := make([]*big.Int, g.NumVerticesOfType(types[h]))
			for c, n := range cur {
				if n == nil {
					continue
				}
				nbrs, mults := g.Neighbors(g.VerticesOfType(types[h-1])[c], types[h])
				for k, u := range nbrs {
					if next[pos[u]] == nil {
						next[pos[u]] = new(big.Int)
					}
					next[pos[u]].Add(next[pos[u]], new(big.Int).Mul(n, big.NewInt(int64(mults[k]))))
				}
			}
			cur = next
		}
		rows[i] = make([]float64, len(cur))
		for c, n := range cur {
			if n != nil {
				rows[i][c] = exactFloat(t, n)
			}
		}
	}
	return rows
}

// exactFloat converts a count the fixture must keep inside 2⁵³.
func exactFloat(t *testing.T, n *big.Int) float64 {
	t.Helper()
	if n.Cmp(twoTo53) >= 0 {
		t.Fatalf("fixture leaves the exact domain: count %v ≥ 2^53", n)
	}
	return float64(n.Int64())
}

// dot is κ(a, b) for two rows of exact integers. Every partial sum is an
// integer bounded by the visibilities (Cauchy–Schwarz), which the caller has
// checked inside 2⁵³, so float64 arithmetic is exact here in any order.
func oracleDot(a, b []float64) float64 {
	var s float64
	for k, x := range a {
		s += x * b[k]
	}
	return s
}

func bigOf(x float64) *big.Float { return new(big.Float).SetPrec(oraclePrec).SetFloat64(x) }

// oracleOmega is Ω(vi) of every candidate under one path, exact to
// oraclePrec; nil marks zero visibility κ(vi,vi) = 0.
//
//	NetOut  (Definition 10):  Σ_j κ(vi,vj) / κ(vi,vi)
//	PathSim:                  Σ_j 2κ(vi,vj) / (κ(vi,vi) + κ(vj,vj))
//	CosSim:                   Σ_j κ(vi,vj) / √(κ(vi,vi)·κ(vj,vj))
//
// over vj ∈ Sr; a reference of zero visibility has κ(vi,vj) = 0 and adds
// nothing under any of the three.
func oracleOmega(t *testing.T, measure Measure, cand, ref [][]float64) []*big.Float {
	t.Helper()
	vis := func(rows [][]float64) []float64 {
		out := make([]float64, len(rows))
		for i, row := range rows {
			sum := new(big.Int)
			for _, x := range row {
				n := big.NewInt(int64(x))
				sum.Add(sum, n.Mul(n, n))
			}
			out[i] = exactFloat(t, sum)
		}
		return out
	}
	candVis, refVis := vis(cand), vis(ref)
	// CosSim's square roots, one per row: a pair's term is then
	// κ(vi,vj) / (√κ(vi,vi)·√κ(vj,vj)), each root rounded once at oraclePrec.
	roots := func(vis []float64) []*big.Float {
		out := make([]*big.Float, len(vis))
		for i, v := range vis {
			out[i] = bigOf(v)
			out[i].Sqrt(out[i])
		}
		return out
	}
	var candRoot, refRoot []*big.Float
	if measure == MeasureCosSim {
		candRoot, refRoot = roots(candVis), roots(refVis)
	}
	out := make([]*big.Float, len(cand))
	for i, row := range cand {
		if candVis[i] == 0 {
			continue
		}
		sum := new(big.Float).SetPrec(oraclePrec)
		total := new(big.Int) // Σ_j κ(vi,vj), NetOut's numerator
		for j, other := range ref {
			k := oracleDot(row, other)
			if k == 0 { // a zero term under every measure, and refVis[j] = 0 has only those
				continue
			}
			switch measure {
			case MeasureNetOut:
				total.Add(total, big.NewInt(int64(k)))
			case MeasurePathSim:
				sum.Add(sum, new(big.Float).Quo(bigOf(2*k), bigOf(candVis[i]+refVis[j])))
			case MeasureCosSim:
				den := new(big.Float).Mul(candRoot[i], refRoot[j])
				sum.Add(sum, den.Quo(bigOf(k), den))
			}
		}
		if measure == MeasureNetOut {
			sum.Quo(bigOf(exactFloat(t, total)), bigOf(candVis[i]))
		}
		out[i] = sum
	}
	return out
}

// oracleResult is the oracle's answer to a query: every characterized
// candidate's score, the rest in candidate order, and how far a correct
// float64 implementation may land from a score, in units in the last place.
type oracleResult struct {
	score   map[hin.VertexID]float64
	skipped []hin.VertexID
	ulps    uint64
}

// oracleQuery scores cands against refs under the weighted paths, averaging
// per-path scores over the paths a candidate is visible under (Section 5.1).
//
// The ULP bound, with u = 2⁻⁵³ and every term non-negative so that relative
// errors never amplify (an error of r·u relative is under r ULPs):
//
//   - NetOut, one path of weight 1: 0. Numerator and visibility are integers
//     inside 2⁵³, exact in float64 however they were summed; the score is one
//     correctly rounded division, and 1·s/1 is s.
//   - PathSim, one path: each term is one rounded division of exact operands
//     and the running sum rounds once per reference: |Sr| + 2.
//   - CosSim, one path: normalizing a vector rounds a square root, a
//     reciprocal and a product per component (3u); the reference aggregate
//     adds |Sr| roundings per component, the final dot one product and up to
//     a row's width of additions: |Sr| + width + 8.
//   - An average of P paths adds a product and a sum per path and one
//     division: P + 4 on top of the worst path.
func oracleQuery(t *testing.T, g *hin.Graph, measure Measure, paths [][]hin.TypeID, weights []float64, cands, refs []hin.VertexID, memo map[string][]*big.Float) oracleResult {
	t.Helper()
	pos := make([]int, g.NumVertices())
	for ty := 0; ty < g.Schema().NumTypes(); ty++ {
		for i, v := range g.VerticesOfType(hin.TypeID(ty)) {
			pos[v] = i
		}
	}
	res := oracleResult{score: map[hin.VertexID]float64{}}
	omegas := make([][]*big.Float, len(paths))
	for m, types := range paths {
		key := fmt.Sprint(types, cands, refs)
		var ok bool
		if omegas[m], ok = memo[key]; !ok {
			cand := oracleRows(t, g, types, cands, pos)
			ref := cand
			if !slices.Equal(cands, refs) {
				ref = oracleRows(t, g, types, refs, pos)
			}
			omegas[m] = oracleOmega(t, measure, cand, ref)
			if memo != nil {
				memo[key] = omegas[m]
			}
		}
		var perPath uint64
		switch measure {
		case MeasurePathSim:
			perPath = uint64(len(refs)) + 2
		case MeasureCosSim:
			perPath = uint64(len(refs)+g.NumVerticesOfType(types[len(types)-1])) + 8
		}
		res.ulps = max(res.ulps, perPath)
	}
	if len(paths) > 1 || weights[0] != 1 {
		res.ulps += uint64(len(paths)) + 4
	}
	for i, v := range cands {
		sum, w := new(big.Float).SetPrec(oraclePrec), new(big.Float).SetPrec(oraclePrec)
		for m := range paths {
			if omega := omegas[m][i]; omega != nil {
				sum.Add(sum, new(big.Float).Mul(bigOf(weights[m]), omega))
				w.Add(w, bigOf(weights[m]))
			}
		}
		if w.Sign() == 0 {
			res.skipped = append(res.skipped, v)
			continue
		}
		res.score[v], _ = sum.Quo(sum, w).Float64()
	}
	return res
}

// ulpDistance is the number of float64 values between two non-negative
// scores.
func ulpDistance(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// check holds an engine's untruncated result to the oracle: the same skipped
// set, every other candidate ranked with a score inside the bound, in the
// engine's own (score, vertex) order.
func (o oracleResult) check(t *testing.T, label string, got *Result) {
	t.Helper()
	if fmt.Sprint(got.Skipped) != fmt.Sprint(o.skipped) {
		t.Fatalf("%s: skipped %v, the oracle skips %v", label, got.Skipped, o.skipped)
	}
	if len(got.Entries) != len(o.score) {
		t.Fatalf("%s: %d entries, the oracle ranks %d", label, len(got.Entries), len(o.score))
	}
	if !sort.SliceIsSorted(got.Entries, func(i, j int) bool { return entryBefore(got.Entries[i], got.Entries[j]) }) {
		t.Fatalf("%s: entries are not in (score, vertex) order", label)
	}
	for _, e := range got.Entries {
		want, ok := o.score[e.Vertex]
		if !ok {
			t.Fatalf("%s: ranks %s, which the oracle skips", label, e.Name)
		}
		if d := ulpDistance(want, e.Score); d > o.ulps {
			t.Fatalf("%s: %s scores %v (%x), the oracle %v (%x): %d ULPs apart, bound %d",
				label, e.Name, e.Score, math.Float64bits(e.Score), want, math.Float64bits(want), d, o.ulps)
		}
	}
}

// Every place a query's candidate ranges run — inline, local ranges, a remote
// fleet — on a traversal-only, a caching and both indexed materializers (PM,
// and SPM over a random half of t0), cold and warm, against the oracle:
// random schemas and multigraphs × {Sr ≡ Sc, COMPARED TO a subset} × the
// three measures × one path or several.
func TestExecutionMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomHIN(r, 5)
		all := g.VerticesOfType(0)
		// Drawn from a source of its own, so r draws the same fixtures as
		// before the indexed materializers joined.
		half := slices.Clone(all)
		rand.New(rand.NewSource(-seed)).Shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
		half = half[:len(half)/2]
		var subset []hin.VertexID
		for _, v := range all {
			if r.Intn(4) == 0 {
				subset = append(subset, v)
			}
		}
		subset = append(subset, all[len(all)-1]) // an edgeless reference among them
		subset = dedupSorted(subset)
		for _, single := range []bool{true, false} {
			clause, paths, weights := oracleFeatures(r, g, single)
			for _, sh := range []struct {
				name, compared string
				refs           []hin.VertexID
			}{
				{"Sr=Sc", "", all},
				{"subset", " COMPARED TO t0" + quoted(g, subset), subset},
			} {
				src := fmt.Sprintf("FIND OUTLIERS FROM t0%s JUDGED BY %s;", sh.compared, clause)
				for _, measure := range allMeasures {
					want := oracleQuery(t, g, measure, paths, weights, all, sh.refs, nil)
					if single && measure == MeasureNetOut && want.ulps != 0 {
						t.Fatalf("single-path NetOut must be held to Float64bits equality, bound is %d ULPs", want.ulps)
					}
					for matName, newMat := range map[string]func(*hin.Graph) *Materializer{
						"baseline": eagerBaseline,
						"cached": func(g *hin.Graph) *Materializer {
							m, err := NewCached(g, 64<<20)
							if err != nil {
								t.Fatal(err)
							}
							return m
						},
						"pm":  NewPM,
						"spm": func(g *hin.Graph) *Materializer { return NewSPMVertices(g, half) },
					} {
						for exName, opts := range map[string][]Option{
							"inline": {WithMaterializer(newMat(g)), WithQueryParallelism(1)},
							"ranges": {WithMaterializer(newMat(g)), WithQueryParallelism(3)},
							"remote": {WithMaterializer(newMat(g)), WithRemoteShards(fakeFleetOf(g, 2, newMat)...)},
						} {
							eng := NewEngine(g, append(opts, WithMeasure(measure))...)
							// The third run keeps the paths' numerators N and the
							// fourth reads them (the store's keptN).
							for _, temp := range []string{"cold", "warm", "keeps N", "memo"} {
								got, err := eng.Execute(src)
								label := fmt.Sprintf("seed %d %v %s %s/%s %s: %s", seed, measure, sh.name, matName, exName, temp, clause)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								want.check(t, label, got)
								if temp == "memo" && matName == "baseline" && measure == MeasureNetOut && exName != "remote" {
									if memo := strings.Count(strings.Join(got.Trace.Plan, "\n"), ": numer=memo"); memo != len(paths) {
										t.Fatalf("%s: %d of %d paths read the kept N; plan %q", label, memo, len(paths), got.Trace.Plan)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
