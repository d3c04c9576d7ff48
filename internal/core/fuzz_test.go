package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// LoadIndex on arbitrary bytes never panics, and an index it accepts holds
// what the file says: every (path, vertex) the file lists — the last listing
// wins — probes Float64bits-equal to it, nothing else is present, and the
// index materializes a 4-hop path from every author. Seeded with SaveIndex of
// a PM and an SPM index of the Figure 1 graph.
func FuzzLoadIndex(f *testing.F) {
	g := fig1Graph(f)
	a, _ := g.Schema().TypeByName("author")
	zoe, _ := g.VertexByName(a, "Zoe")
	for _, m := range []*Materializer{NewPM(g), NewSPMVertices(g, []hin.VertexID{zoe})} {
		var buf bytes.Buffer
		if err := SaveIndex(m, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	apapv, err := metapath.ParseDotted(g.Schema(), "author.paper.author.paper.venue")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadIndex(g, bytes.NewReader(data))
		if err != nil {
			return
		}
		ix := m.ix
		want := indexFileVectors(t, data)
		present := 0
		ix.forEachPath(func(_ string, tbl *pathTable) { present += tbl.count })
		if present != len(want) {
			t.Fatalf("the index holds %d vectors, the file lists %d", present, len(want))
		}
		for at, vec := range want {
			got, ok := ix.probe(ix.table(metapath.FromKey(at.path)), at.v)
			if !ok {
				t.Fatalf("%q from %d: listed, not loaded", at.path, at.v)
			}
			vecBitEqual(t, fmt.Sprintf("%q from %d", at.path, at.v), vec, got)
		}
		for _, v := range g.VerticesOfType(a) {
			if _, err := m.NeighborVector(apapv, v); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// indexEntry names one listing of an index file.
type indexEntry struct {
	path string
	v    hin.VertexID
}

// indexFileVectors decodes an index file LoadIndex accepted, sharing no code
// with it: the format is persist.go's header comment.
func indexFileVectors(t *testing.T, data []byte) map[indexEntry]sparse.Vector {
	r := bytes.NewReader(data[len(indexMagic):])
	read := func(x any) {
		if err := binary.Read(r, binary.LittleEndian, x); err != nil {
			t.Fatalf("an accepted index does not decode: %v", err)
		}
	}
	var head [5]uint64 // version, strategy, vertices, edges, paths
	read(&head)
	out := map[indexEntry]sparse.Vector{}
	for range head[4] {
		var keyLen, numVerts uint32
		read(&keyLen)
		key := make([]byte, keyLen)
		read(key)
		read(&numVerts)
		for range numVerts {
			var v int32
			var nnz uint32
			read(&v)
			read(&nnz)
			vec := sparse.Vector{Idx: make([]int32, nnz), Val: make([]float64, nnz)}
			read(vec.Idx)
			read(vec.Val)
			out[indexEntry{string(key), hin.VertexID(v)}] = vec
		}
	}
	return out
}
