package core

import (
	"fmt"
	"math/rand"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// nestedMapIndex is the pre-arena index layout (path key → vertex → vector),
// kept here as the reference implementation for equivalence tests and as the
// baseline arm of BenchmarkPathIndexProbe.
type nestedMapIndex struct {
	vectors map[string]map[hin.VertexID]sparse.Vector
}

func newNestedMapIndex() *nestedMapIndex {
	return &nestedMapIndex{vectors: make(map[string]map[hin.VertexID]sparse.Vector)}
}

func (ix *nestedMapIndex) put(p metapath.Path, v hin.VertexID, vec sparse.Vector) {
	key := p.Key()
	m := ix.vectors[key]
	if m == nil {
		m = make(map[hin.VertexID]sparse.Vector)
		ix.vectors[key] = m
	}
	m[v] = vec.Clone()
}

func (ix *nestedMapIndex) get(p metapath.Path, v hin.VertexID) (sparse.Vector, bool) {
	m, ok := ix.vectors[p.Key()]
	if !ok {
		return sparse.Vector{}, false
	}
	vec, ok := m[v]
	return vec, ok
}

// pathIndexGraph builds a two-type graph with nAuthors authors (IDs first)
// and one paper, plus the author->paper->author test path.
func pathIndexGraph(tb testing.TB, nAuthors int) (*hin.Graph, metapath.Path, []hin.VertexID) {
	tb.Helper()
	s := hin.MustSchema("author", "paper")
	a, _ := s.TypeByName("author")
	p, _ := s.TypeByName("paper")
	s.AllowLink(a, p)
	b := hin.NewBuilder(s)
	authors := make([]hin.VertexID, nAuthors)
	for i := range authors {
		authors[i] = b.MustAddVertex(a, fmt.Sprintf("a%d", i))
	}
	paper := b.MustAddVertex(p, "p0")
	for _, v := range authors {
		b.MustAddEdge(v, paper)
	}
	return b.Build(), metapath.MustNew(a, p, a), authors
}

func TestPathIndexPutGet(t *testing.T) {
	g, apa, authors := pathIndexGraph(t, 8)
	ix := newPathIndex(g)

	if _, ok := ix.probe(ix.table(apa), authors[0]); ok {
		t.Fatal("empty index returned a vector")
	}
	if ix.table(apa) != nil {
		t.Fatal("empty index has a table")
	}

	vecs := make(map[hin.VertexID]sparse.Vector)
	for i, v := range authors {
		if i == 3 {
			continue // leave one hole to exercise absent entries mid-span
		}
		vec := sparse.FromMap(map[int32]float64{int32(v): float64(i + 1), int32(authors[0]): 1})
		vecs[v] = vec
		ix.put(apa, v, vec)
	}
	tbl := ix.table(apa)
	if tbl == nil {
		t.Fatal("table missing after puts")
	}
	if tbl.count != len(vecs) {
		t.Fatalf("table count = %d, want %d", tbl.count, len(vecs))
	}
	for _, v := range authors {
		got, ok := ix.probe(tbl, v)
		want, present := vecs[v]
		if ok != present {
			t.Fatalf("probe(%d) ok = %v, want %v", v, ok, present)
		}
		if ok && !got.Equal(want) {
			t.Fatalf("probe(%d) = %v, want %v", v, got, want)
		}
	}
	// A vertex of the wrong type (the paper, whose ID is past the author
	// span) misses rather than aliasing garbage.
	if _, ok := ix.probe(tbl, hin.VertexID(len(authors))); ok {
		t.Fatal("paper vertex resolved in an author table")
	}

	// Exact bytes: arena payload + entry tables + key strings, no estimates.
	wantBytes := int64(len(ix.idx))*4 + int64(len(ix.val))*8
	for key, tb := range ix.tables {
		wantBytes += int64(len(tb.entries))*vecSpanBytes + int64(len(key))
	}
	if ix.bytes != wantBytes {
		t.Fatalf("bytes = %d, want exact %d", ix.bytes, wantBytes)
	}
}

func TestPathIndexOverwrite(t *testing.T) {
	g, apa, authors := pathIndexGraph(t, 4)
	ix := newPathIndex(g)
	v := authors[1]
	big := sparse.FromMap(map[int32]float64{0: 1, 1: 2, 2: 3})
	ix.put(apa, v, big)
	arenaLen := len(ix.idx)

	// Smaller payload overwrites in place: arena does not grow.
	small := sparse.FromMap(map[int32]float64{2: 9})
	ix.put(apa, v, small)
	if len(ix.idx) != arenaLen {
		t.Fatalf("in-place overwrite grew the arena: %d -> %d", arenaLen, len(ix.idx))
	}
	if got, ok := ix.probe(ix.table(apa), v); !ok || !got.Equal(small) {
		t.Fatalf("after shrink overwrite: %v, %v", got, ok)
	}

	// Larger payload appends; the old span goes dead but stays counted.
	bigger := sparse.FromMap(map[int32]float64{0: 1, 1: 2, 2: 3, 3: 4})
	ix.put(apa, v, bigger)
	if len(ix.idx) != arenaLen+bigger.NNZ() {
		t.Fatalf("append overwrite arena length = %d, want %d", len(ix.idx), arenaLen+bigger.NNZ())
	}
	if got, ok := ix.probe(ix.table(apa), v); !ok || !got.Equal(bigger) {
		t.Fatalf("after grow overwrite: %v, %v", got, ok)
	}
	if tbl := ix.table(apa); tbl.count != 1 {
		t.Fatalf("overwrites changed the entry count: %d", tbl.count)
	}
}

func TestPathIndexMatchesNestedMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomBibGraph(r)
		arena := newPathIndex(g)
		nested := newNestedMapIndex()
		tr := metapath.NewTraverser(g)
		paths := allLength2Paths(g.Schema())
		for _, p := range paths {
			for _, v := range g.VerticesOfType(p.Source()) {
				if r.Float64() < 0.3 {
					continue // partial index, like SPM
				}
				vec, err := tr.NeighborVector(p, v)
				if err != nil {
					t.Fatal(err)
				}
				arena.put(p, v, vec)
				nested.put(p, v, vec)
			}
		}
		for _, p := range paths {
			tbl := arena.table(p)
			for v := hin.VertexID(0); int(v) < g.NumVertices(); v++ {
				got, gotOK := arena.probe(tbl, v)
				want, wantOK := nested.get(p, v)
				if gotOK != wantOK {
					t.Fatalf("trial %d: probe(%v,%d) ok=%v, nested ok=%v", trial, p, v, gotOK, wantOK)
				}
				if gotOK && !got.Equal(want) {
					t.Fatalf("trial %d: probe(%v,%d) = %v, want %v", trial, p, v, got, want)
				}
			}
		}
	}
}

func BenchmarkPathIndexProbe(b *testing.B) {
	const nAuthors = 4096
	g, apa, authors := pathIndexGraph(b, nAuthors)
	arena := newPathIndex(g)
	nested := newNestedMapIndex()
	r := rand.New(rand.NewSource(1))
	for i, v := range authors {
		m := map[int32]float64{int32(v): 1}
		for j := 0; j < 8; j++ {
			m[int32(authors[r.Intn(nAuthors)])] = float64(i%7 + 1)
		}
		vec := sparse.FromMap(m)
		arena.put(apa, v, vec)
		nested.put(apa, v, vec)
	}
	b.Run("nested-map", func(b *testing.B) {
		var nnz int
		for i := 0; i < b.N; i++ {
			vec, _ := nested.get(apa, authors[i%nAuthors])
			nnz += vec.NNZ()
		}
		sinkInt(nnz)
	})
	b.Run("arena", func(b *testing.B) {
		tbl := arena.table(apa)
		var nnz int
		for i := 0; i < b.N; i++ {
			vec, _ := arena.probe(tbl, authors[i%nAuthors])
			nnz += vec.NNZ()
		}
		sinkInt(nnz)
	})
}

//go:noinline
func sinkInt(int) {}
