package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/sparse"
)

// Index persistence: PM and SPM are offline indexing phases, so their
// indexes can be built once and shipped to query servers. The format is a
// simple little-endian binary layout:
//
//	magic "NOIX" | version u32 | strategy u32 | numPaths u32
//	per path: keyLen u32 | key bytes | numVertices u32
//	  per vertex: id i32 | nnz u32 | idx i32[nnz] | val f64[nnz]
//
// The graph itself is not embedded; callers must load the index against
// the same graph it was built from (a fingerprint of vertex/edge counts is
// stored and checked).

const (
	indexMagic   = "NOIX"
	indexVersion = 1
)

// SaveIndex writes a pre-materialized index (PM or SPM) to w. Baseline and
// cached materializers have no persistent index and are rejected.
func SaveIndex(m *Materializer, w io.Writer) error {
	if m.strategy == StrategyBaseline || m.cached() {
		return fmt.Errorf("core: %s has no persistent index", m.Strategy())
	}
	g := m.tr.Graph()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	head := []uint64{
		indexVersion,
		uint64(m.strategy),
		uint64(g.NumVertices()),
		uint64(g.NumEdges()),
		uint64(m.ix.numPaths()),
	}
	for _, h := range head {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	var werr error
	m.ix.forEachPath(func(key string, t *pathTable) {
		if werr != nil {
			return
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(key))); err != nil {
			werr = err
			return
		}
		if _, err := bw.WriteString(key); err != nil {
			werr = err
			return
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(t.count)); err != nil {
			werr = err
			return
		}
		// The arena stores each table's vectors in vertex order, so this walk
		// streams the idx/val arrays near-sequentially.
		t.forEach(m.ix, func(v hin.VertexID, vec sparse.Vector) {
			if werr != nil {
				return
			}
			if err := binary.Write(bw, binary.LittleEndian, int32(v)); err != nil {
				werr = err
				return
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(vec.NNZ())); err != nil {
				werr = err
				return
			}
			if err := binary.Write(bw, binary.LittleEndian, vec.Idx); err != nil {
				werr = err
				return
			}
			if err := binary.Write(bw, binary.LittleEndian, vec.Val); err != nil {
				werr = err
				return
			}
		})
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// LoadIndex reads an index written by SaveIndex and returns a materializer
// over g. The graph must match the one the index was built from.
func LoadIndex(g *hin.Graph, r io.Reader) (*Materializer, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading index magic: %w", err)
	}
	if string(magic) != indexMagic {
		return nil, fmt.Errorf("core: not a netout index file (magic %q)", magic)
	}
	var head [5]uint64
	for i := range head {
		if err := binary.Read(br, binary.LittleEndian, &head[i]); err != nil {
			return nil, fmt.Errorf("core: reading index header: %w", err)
		}
	}
	if head[0] != indexVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", head[0])
	}
	strategy := Strategy(head[1])
	if strategy != StrategyPM && strategy != StrategySPM {
		return nil, fmt.Errorf("core: index has invalid strategy %d", head[1])
	}
	if head[2] != uint64(g.NumVertices()) || head[3] != uint64(g.NumEdges()) {
		return nil, fmt.Errorf("core: index was built for a different graph (%d vertices/%d edges, graph has %d/%d)",
			head[2], head[3], g.NumVertices(), g.NumEdges())
	}
	numPaths := head[4]
	if numPaths > 1<<20 {
		return nil, fmt.Errorf("core: implausible path count %d", numPaths)
	}
	ix := newPathIndex(g)
	// put copies payloads into the arena, so one pair of read buffers is
	// reused across every vector in the file.
	var idxBuf []int32
	var valBuf []float64
	for p := uint64(0); p < numPaths; p++ {
		var keyLen uint32
		if err := binary.Read(br, binary.LittleEndian, &keyLen); err != nil {
			return nil, fmt.Errorf("core: reading path key length: %w", err)
		}
		if keyLen > 255 {
			return nil, fmt.Errorf("core: implausible path key length %d", keyLen)
		}
		key := make([]byte, keyLen)
		if _, err := io.ReadFull(br, key); err != nil {
			return nil, fmt.Errorf("core: reading path key: %w", err)
		}
		path := metapath.FromKey(string(key))
		if err := path.Validate(g.Schema()); err != nil {
			return nil, fmt.Errorf("core: index path invalid for this schema: %w", err)
		}
		var numVerts uint32
		if err := binary.Read(br, binary.LittleEndian, &numVerts); err != nil {
			return nil, fmt.Errorf("core: reading vertex count: %w", err)
		}
		for i := uint32(0); i < numVerts; i++ {
			var v int32
			var nnz uint32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("core: reading vertex id: %w", err)
			}
			if !g.Valid(hin.VertexID(v)) {
				return nil, fmt.Errorf("core: index vertex %d out of range", v)
			}
			if g.Type(hin.VertexID(v)) != path.Source() {
				return nil, fmt.Errorf("core: index vertex %d has type %s, path %s starts at %s",
					v, g.Schema().TypeName(g.Type(hin.VertexID(v))), path,
					g.Schema().TypeName(path.Source()))
			}
			if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
				return nil, fmt.Errorf("core: reading nnz: %w", err)
			}
			if nnz > uint32(g.NumVertices()) {
				return nil, fmt.Errorf("core: implausible nnz %d", nnz)
			}
			if cap(idxBuf) < int(nnz) {
				idxBuf = make([]int32, nnz)
				valBuf = make([]float64, nnz)
			}
			vec := sparse.Vector{Idx: idxBuf[:nnz], Val: valBuf[:nnz]}
			if err := binary.Read(br, binary.LittleEndian, vec.Idx); err != nil {
				return nil, fmt.Errorf("core: reading indices: %w", err)
			}
			if err := binary.Read(br, binary.LittleEndian, vec.Val); err != nil {
				return nil, fmt.Errorf("core: reading values: %w", err)
			}
			for k, u := range vec.Idx {
				if k > 0 && vec.Idx[k-1] >= u {
					return nil, fmt.Errorf("core: index vector for vertex %d not sorted", v)
				}
				// Traverser.Combine scatters a coordinate into its type's span.
				if !g.Valid(hin.VertexID(u)) || g.Type(hin.VertexID(u)) != path.Target() {
					return nil, fmt.Errorf("core: index vector for vertex %d has coordinate %d outside type %s",
						v, u, g.Schema().TypeName(path.Target()))
				}
				if math.IsNaN(vec.Val[k]) || math.IsInf(vec.Val[k], 0) {
					return nil, fmt.Errorf("core: index vector for vertex %d has non-finite value", v)
				}
			}
			ix.put(path, hin.VertexID(v), vec)
		}
	}
	return newMaterializer(g, ix, strategy, keptMaxBytes), nil
}

// SaveIndexFile writes the index to a file.
func SaveIndexFile(m *Materializer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveIndex(m, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadIndexFile reads an index from a file.
func LoadIndexFile(g *hin.Graph, path string) (*Materializer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadIndex(g, f)
}
