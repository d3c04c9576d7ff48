package hin

import (
	"testing"
)

func TestPartitionVerticesCoversInOrder(t *testing.T) {
	for _, tc := range []struct {
		n, parts int
		sizes    []int
	}{
		{n: 10, parts: 1, sizes: []int{10}},
		{n: 10, parts: 2, sizes: []int{5, 5}},
		{n: 10, parts: 3, sizes: []int{4, 3, 3}}, // odd split: extras lead
		{n: 7, parts: 3, sizes: []int{3, 2, 2}},
		{n: 3, parts: 7, sizes: []int{1, 1, 1, 0, 0, 0, 0}}, // more shards than vertices
		{n: 0, parts: 4, sizes: []int{0, 0, 0, 0}},          // empty type
		{n: 5, parts: 0, sizes: []int{5}},                   // n < 1 clamps to one range
	} {
		vs := make([]VertexID, tc.n)
		for i := range vs {
			vs[i] = VertexID(i * 2)
		}
		got := PartitionVertices(vs, tc.parts)
		if len(got) != len(tc.sizes) {
			t.Fatalf("PartitionVertices(%d, %d) returned %d ranges, want %d", tc.n, tc.parts, len(got), len(tc.sizes))
		}
		var flat []VertexID
		for i, r := range got {
			if len(r) != tc.sizes[i] {
				t.Errorf("PartitionVertices(%d, %d) range %d has %d elements, want %d", tc.n, tc.parts, i, len(r), tc.sizes[i])
			}
			flat = append(flat, r...)
		}
		if len(flat) != len(vs) {
			t.Fatalf("ranges cover %d vertices, want %d", len(flat), len(vs))
		}
		for i := range flat {
			if flat[i] != vs[i] {
				t.Fatalf("concatenated ranges diverge at %d: %d != %d", i, flat[i], vs[i])
			}
		}
	}
}

func TestPartitionVerticesSharesBackingWithoutAliasing(t *testing.T) {
	vs := []VertexID{0, 1, 2, 3, 4, 5, 6}
	got := PartitionVertices(vs, 3)
	// No copying: each non-empty range is a sub-slice of vs itself.
	off := 0
	for i, r := range got {
		if len(r) == 0 {
			continue
		}
		if &r[0] != &vs[off] {
			t.Fatalf("range %d copied the underlying slice", i)
		}
		off += len(r)
	}
	// No aliasing hazard: cap == len, so an append to one range must
	// reallocate rather than overwrite the next range's first element.
	for i, r := range got {
		if cap(r) != len(r) {
			t.Fatalf("range %d has cap %d > len %d: append would alias the next range", i, cap(r), len(r))
		}
	}
	_ = append(got[0], 99)
	for i, want := range []VertexID{0, 1, 2, 3, 4, 5, 6} {
		if vs[i] != want {
			t.Fatalf("append to a range mutated the shared slice at %d: %d", i, vs[i])
		}
	}
}
