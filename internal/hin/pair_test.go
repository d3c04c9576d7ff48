package hin

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

type testEdge struct {
	v, u VertexID
	m    int32
}

// randomMultigraph draws three types that take turns receiving vertex IDs
// (every type's ID span has the others' vertices as holes), links 0–1, 0–2 and
// 2–2 (a self-typed pair; 1–2 and the other self pairs stay empty) and gives
// every allowed vertex pair an edge with probability density: sparse draws
// leave empty rows and keep Row, dense ones put pairs past flatRowMean.
// Multiplicities run 1–3 unless unit.
func randomMultigraph(r *rand.Rand, density float64, unit bool) (*Schema, []TypeID, []testEdge) {
	s := MustSchema("a", "b", "c")
	s.AllowLink(0, 1)
	s.AllowLink(0, 2)
	s.AllowLink(2, 2)
	types := make([]TypeID, 20+r.Intn(40))
	for i := range types {
		types[i] = TypeID(r.Intn(3))
	}
	var edges []testEdge
	for v := range types {
		for u := v; u < len(types); u++ {
			if s.EdgeAllowed(types[v], types[u]) && r.Float64() < density {
				m := int32(1)
				if !unit {
					m += int32(r.Intn(3))
				}
				edges = append(edges, testEdge{VertexID(v), VertexID(u), m})
			}
		}
	}
	return s, types, edges
}

func buildFrom(t *testing.T, s *Schema, types []TypeID, edges []testEdge) *Graph {
	t.Helper()
	b := NewBuilder(s)
	for i, tp := range types {
		b.MustAddVertex(tp, fmt.Sprintf("v%d", i))
	}
	for _, e := range edges {
		if err := b.AddEdgeMult(e.v, e.u, e.m); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// The pair-major layout is one store read two ways: row i of Pair(t, u) is
// Neighbors(v, u) of the i-th vertex of type t — the same memory, ascending —
// Row ranks the entries of exactly the short-row pairs, Unit is true of
// exactly the all-ones pairs, and the order edges were added in leaves no
// trace (Build fills rows by sweeping sources, it does not sort).
func TestPairMajorLayout(t *testing.T) {
	seen := map[[2]bool]int{} // [short rows, all multiplicities 1] → pairs
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, types, edges := randomMultigraph(r, []float64{0.05, 0.3, 0.9}[seed%3], seed%4 == 0)
		g := buildFrom(t, s, types, edges)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: Validate: %v", seed, err)
		}
		var entries int
		for tp := TypeID(0); int(tp) < s.NumTypes(); tp++ {
			for up := TypeID(0); int(up) < s.NumTypes(); up++ {
				p, rows := g.Pair(tp, up), g.VerticesOfType(tp)
				if len(p.Off) != len(rows)+1 || len(p.Mult) != len(p.Nbr) || int64(len(p.Nbr)) != g.EdgesBetween(tp, up) {
					t.Fatalf("seed %d pair %d->%d: %d offsets, %d/%d entries for %d rows, EdgesBetween %d",
						seed, tp, up, len(p.Off), len(p.Nbr), len(p.Mult), len(rows), g.EdgesBetween(tp, up))
				}
				entries += len(p.Nbr)
				unit := true
				for i, v := range rows {
					nbrs, mults := g.Neighbors(v, up)
					row, rowMult := p.Nbr[p.Off[i]:p.Off[i+1]], p.Mult[p.Off[i]:p.Off[i+1]]
					if !slices.Equal(row, nbrs) || !slices.Equal(rowMult, mults) || g.Degree(v, up) != len(row) {
						t.Fatalf("seed %d pair %d->%d row %d: %v×%v, Neighbors(%d) = %v×%v", seed, tp, up, i, row, rowMult, v, nbrs, mults)
					}
					if len(row) > 0 && (&row[0] != &nbrs[0] || &rowMult[0] != &mults[0]) {
						t.Fatalf("seed %d pair %d->%d row %d: a second copy of Neighbors(%d)", seed, tp, up, i, v)
					}
					if !slices.IsSorted(nbrs) {
						t.Fatalf("seed %d: Neighbors(%d, %d) = %v not ascending", seed, v, up, nbrs)
					}
					for j := p.Off[i]; j < p.Off[i+1]; j++ {
						unit = unit && p.Mult[j] == 1
						if p.Row != nil && p.Row[j] != int32(i) {
							t.Fatalf("seed %d pair %d->%d: Row[%d] = %d, in row %d", seed, tp, up, j, p.Row[j], i)
						}
					}
				}
				short := len(p.Nbr) > 0 && len(p.Nbr) < flatRowMean*len(rows)
				if (p.Row != nil) != short || p.Unit != unit {
					t.Fatalf("seed %d pair %d->%d: %d entries in %d rows, Row kept %v; Unit = %v, want %v",
						seed, tp, up, len(p.Nbr), len(rows), p.Row != nil, p.Unit, unit)
				}
				if len(p.Nbr) > 0 {
					seen[[2]bool{short, unit}]++
				}
			}
		}
		if entries != len(g.nbr) || cap(g.nbr) != len(g.nbr) {
			t.Fatalf("seed %d: pairs hold %d entries, the one store %d (cap %d)", seed, entries, len(g.nbr), cap(g.nbr))
		}

		slices.Reverse(edges)
		for i := range edges {
			edges[i].v, edges[i].u = edges[i].u, edges[i].v
		}
		if back := buildFrom(t, s, types, edges); !reflect.DeepEqual(g, back) {
			t.Fatalf("seed %d: the graph depends on the order its edges were added in", seed)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("pairs seen by [short, unit]: %v; the generator must reach all four", seen)
	}
}

// Validate reads the new tables, so it must notice when they disagree.
func TestValidateChecksLayout(t *testing.T) {
	s, types, edges := randomMultigraph(rand.New(rand.NewSource(1)), 0.05, true)
	for name, corrupt := range map[string]func(g *Graph){
		"row head moved":    func(g *Graph) { g.head[int(g.pairs[1].Nbr[0])*g.nt].lo++ },
		"offset moved":      func(g *Graph) { g.pairs[1].Off[1]++ },
		"row rank wrong":    func(g *Graph) { g.pairs[1].Row[0]++ },
		"row ranks dropped": func(g *Graph) { g.pairs[1].Row = nil },
		"unit flag wrong":   func(g *Graph) { g.pairs[1].Unit = false },
		"run not in store":  func(g *Graph) { g.pairs[1].Nbr = slices.Clone(g.pairs[1].Nbr) },
		"store not covered": func(g *Graph) { g.nbr, g.mult = append(g.nbr, 0), append(g.mult, 1) },
		"row not ascending": func(g *Graph) { slices.Reverse(longestRow(g)) },
	} {
		g := buildFrom(t, s, types, edges)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if corrupt(g); g.Validate() == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}

func longestRow(g *Graph) []VertexID {
	var best []VertexID
	for v := range g.types {
		for t := 0; t < g.nt; t++ {
			if nbrs, _ := g.Neighbors(VertexID(v), TypeID(t)); len(nbrs) > len(best) {
				best = nbrs
			}
		}
	}
	return best
}
