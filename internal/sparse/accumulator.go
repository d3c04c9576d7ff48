package sparse

// Accumulator gathers coordinate contributions and emits a sorted Vector.
// It is the fallback scratch structure for meta-path traversal: unbounded
// coordinate space, memory proportional to the touched set, one hash per
// scattered coordinate. The DenseAccumulator beats it whenever the target
// coordinate span is small enough to afford a dense scratch array; the
// adaptive kernel in internal/metapath picks between them per hop.
type Accumulator struct {
	m map[int32]float64
	// pairs is the reusable Take scratch: coordinates and values are
	// collected in one map pass and co-sorted, so Take never re-hashes
	// coordinates it already visited.
	pairs []coord
}

type coord struct {
	ix int32
	x  float64
}

// NewAccumulator creates an accumulator with a capacity hint.
func NewAccumulator(hint int) *Accumulator {
	return &Accumulator{m: make(map[int32]float64, hint)}
}

// Add adds x at coordinate i.
func (acc *Accumulator) Add(i int32, x float64) { acc.m[i] += x }

// Len reports the number of touched coordinates.
func (acc *Accumulator) Len() int { return len(acc.m) }

// Take drains the accumulator into a sorted Vector and resets it for reuse.
// Coordinates and values leave the map together in a single pass, so sorting
// costs no further hashing.
func (acc *Accumulator) Take() Vector {
	if len(acc.m) == 0 {
		return Vector{}
	}
	var v Vector
	v, acc.pairs = sortedVector(acc.m, acc.pairs[:0])
	clear(acc.m)
	return v
}
