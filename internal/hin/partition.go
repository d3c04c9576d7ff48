package hin

// Range partitioning for the scatter–gather shard tier: a shard owns a
// contiguous slice of a type's (ascending-ID) vertex list, so shard
// ownership of any sorted candidate set is a contiguous sub-slice too and a
// coordinator can split a query's candidates without copying anything.

// PartitionVertices splits vs into n contiguous ranges that cover vs in
// order, balanced to within one element (the first len(vs)%n ranges hold the
// extra element). n <= 1 yields a single range. Ranges are sub-slices of vs
// — no copying — taken with full-slice expressions so every range has
// cap == len: a caller appending to its range always reallocates instead of
// scribbling into the next range's storage (the slice-aliasing hazard class
// BenchmarkExpand hit in PR 3). When len(vs) < n the trailing ranges are
// empty; an empty vs yields n empty ranges.
func PartitionVertices(vs []VertexID, n int) [][]VertexID {
	if n < 1 {
		n = 1
	}
	out := make([][]VertexID, n)
	size, extra := len(vs)/n, len(vs)%n
	lo := 0
	for i := range out {
		hi := lo + size
		if i < extra {
			hi++
		}
		out[i] = vs[lo:hi:hi]
		lo = hi
	}
	return out
}
