package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func vec(t *testing.T, pairs ...float64) Vector {
	t.Helper()
	if len(pairs)%2 != 0 {
		t.Fatal("vec wants index/value pairs")
	}
	m := make(map[int32]float64)
	for i := 0; i < len(pairs); i += 2 {
		m[int32(pairs[i])] += pairs[i+1]
	}
	return FromMap(m)
}

func TestFromMap(t *testing.T) {
	v := FromMap(map[int32]float64{5: 4, 1: 2, 9: 0})
	if !v.Equal(Vector{Idx: []int32{1, 5}, Val: []float64{2, 4}}) {
		t.Fatalf("FromMap = %v", v)
	}
	if v.NNZ() != 2 || v.IsZero() {
		t.Errorf("NNZ/IsZero wrong for %v", v)
	}
	var zero Vector
	if !zero.IsZero() || zero.NNZ() != 0 {
		t.Error("zero Vector should be empty")
	}
}

func TestAt(t *testing.T) {
	v := vec(t, 1, 2, 5, 4, 100, -1)
	cases := map[int32]float64{0: 0, 1: 2, 3: 0, 5: 4, 100: -1, 101: 0}
	for ix, want := range cases {
		if got := v.At(ix); got != want {
			t.Errorf("At(%d) = %g, want %g", ix, got, want)
		}
	}
}

func TestDotAndNorms(t *testing.T) {
	a := vec(t, 0, 10, 1, 10, 2, 1, 3, 1)
	b := vec(t, 1, 1, 3, 20, 4, 7)
	if got := a.Dot(b); got != 10+20 {
		t.Fatalf("Dot = %g, want 30", got)
	}
	if got := a.Norm2Sq(); got != 100+100+1+1 {
		t.Fatalf("Norm2Sq = %g, want 202", got)
	}
	if got := a.Norm2(); math.Abs(got-math.Sqrt(202)) > 1e-12 {
		t.Fatalf("Norm2 = %g", got)
	}
	c := vec(t, 0, -3, 1, 4)
	if got := c.Sum(); got != 1 {
		t.Fatalf("Sum = %g, want 1", got)
	}
}

func TestScale(t *testing.T) {
	a := vec(t, 1, 3, 2, 4)
	s := a.Scale(2)
	if !s.Equal(vec(t, 1, 6, 2, 8)) {
		t.Fatalf("Scale = %v", s)
	}
	if !a.Scale(0).IsZero() {
		t.Error("Scale(0) should be zero vector")
	}
}

func TestSum(t *testing.T) {
	vs := []Vector{vec(t, 0, 1), vec(t, 0, 2, 5, 1), vec(t, 5, -1)}
	got := Sum(vs)
	if !got.Equal(vec(t, 0, 3)) {
		t.Fatalf("Sum = %v", got)
	}
	if !Sum(nil).IsZero() {
		t.Error("Sum(nil) should be zero")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := vec(t, 1, 1)
	c := a.Clone()
	c.Val[0] = 99
	if a.Val[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestBytesAndString(t *testing.T) {
	a := vec(t, 1, 1, 2, 2)
	if a.Bytes() != 2*(4+8) {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
	if s := a.String(); s != "{1:1 2:2}" {
		t.Fatalf("String = %q", s)
	}
}

func randomVector(r *rand.Rand, maxIdx int32) Vector {
	m := make(map[int32]float64)
	n := r.Intn(20)
	for i := 0; i < n; i++ {
		m[r.Int31n(maxIdx)] = float64(r.Intn(21) - 10)
	}
	return FromMap(m)
}

func TestQuickDotSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomVector(rr, 50), randomVector(rr, 50)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAddCommutativeAndConsistentWithAt(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomVector(rr, 40), randomVector(rr, 40)
		s1, s2 := Sum([]Vector{a, b}), Sum([]Vector{b, a})
		if !s1.Equal(s2) {
			return false
		}
		for ix := int32(0); ix < 40; ix++ {
			if math.Abs(s1.At(ix)-(a.At(ix)+b.At(ix))) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDotMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomVector(rr, 30), randomVector(rr, 30)
		var dense float64
		for ix := int32(0); ix < 30; ix++ {
			dense += a.At(ix) * b.At(ix)
		}
		return math.Abs(a.Dot(b)-dense) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSortedInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := Sum([]Vector{randomVector(rr, 60), randomVector(rr, 60)})
		for i := 1; i < len(v.Idx); i++ {
			if v.Idx[i-1] >= v.Idx[i] {
				return false
			}
		}
		for _, x := range v.Val {
			if x == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator(4)
	acc.Add(5, 1)
	acc.Add(2, 3)
	acc.Add(5, 2)
	if acc.Len() != 2 {
		t.Fatalf("Len = %d", acc.Len())
	}
	v := acc.Take()
	if !v.Equal(FromMap(map[int32]float64{2: 3, 5: 3})) {
		t.Fatalf("Take = %v", v)
	}
	if acc.Len() != 0 {
		t.Error("Take should reset")
	}
	// Exact cancellation inside the accumulator drops the coordinate.
	acc.Add(3, 1)
	acc.Add(3, -1)
	if !acc.Take().IsZero() {
		t.Error("cancelled coordinate should be dropped")
	}
}

func TestDenseAccumulator(t *testing.T) {
	acc := NewDenseAccumulator(16)
	acc.Add(5, 1)
	acc.Add(2, 3)
	acc.Add(5, 2)
	if acc.Len() != 2 {
		t.Fatalf("Len = %d", acc.Len())
	}
	v := acc.TakeInto(Vector{}, 0)
	if !v.Equal(FromMap(map[int32]float64{2: 3, 5: 3})) {
		t.Fatalf("Take = %v", v)
	}
	if acc.Len() != 0 || !acc.TakeInto(Vector{}, 0).IsZero() {
		t.Error("Take should reset")
	}
	// Exact cancellation drops the coordinate; re-adding after a cancel
	// must not duplicate it.
	acc.Add(3, 1)
	acc.Add(3, -1)
	acc.Add(3, 7)
	got := acc.TakeInto(Vector{}, 0)
	if !got.Equal(FromMap(map[int32]float64{3: 7})) {
		t.Fatalf("cancel+readd = %v", got)
	}
}

func TestDenseAccumulatorGrow(t *testing.T) {
	acc := NewDenseAccumulator(0)
	if acc.Size() != 0 {
		t.Fatalf("Size = %d, want 0", acc.Size())
	}
	acc.Grow(4)
	acc.Add(3, 2)
	acc.Grow(100) // growth must preserve accumulated values
	acc.Add(99, 1)
	if acc.Size() < 100 {
		t.Fatalf("Size = %d after Grow(100)", acc.Size())
	}
	got := acc.TakeInto(Vector{}, 0)
	if !got.Equal(FromMap(map[int32]float64{3: 2, 99: 1})) {
		t.Fatalf("Take after Grow = %v", got)
	}
	// Grow never shrinks.
	acc.Grow(10)
	if acc.Size() < 100 {
		t.Fatalf("Grow shrank the scratch to %d", acc.Size())
	}
}

// Both accumulators must produce identical vectors for any add sequence.
func TestQuickAccumulatorsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewAccumulator(8)
		d := NewDenseAccumulator(64)
		for i := 0; i < 200; i++ {
			ix := r.Int31n(64)
			x := float64(r.Intn(9) - 4)
			m.Add(ix, x)
			d.Add(ix, x)
		}
		return m.Take().Equal(d.TakeInto(Vector{}, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAccumulators compares the two scratch structures across frontier
// densities (the design choice documented on DenseAccumulator), after the
// dense one's fill-and-drain alone across touched counts and slots per
// touched coordinate: from every slot written to one in 256, the sparse end
// being where a drain that reads its span, or sorts what it wrote, loses.
func BenchmarkAccumulators(b *testing.B) {
	for _, n := range []int{8, 64, 1024, 16384} {
		for _, slots := range []int{1, 2, 8, 16, 32, 64, 256} {
			idx := rawVector(rand.New(rand.NewSource(1)), n, 0, n*slots).Idx
			rand.New(rand.NewSource(2)).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			b.Run(fmt.Sprintf("take/touched=%d/slots=%d", n, slots), func(b *testing.B) {
				acc := NewDenseAccumulator(n * slots)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, ix := range idx {
						acc.Add(ix, 1)
					}
					sinkVector = acc.TakeInto(Vector{}, 0)
				}
			})
		}
	}
	const space = 1 << 16
	for _, frontier := range []int{32, 1024, 16384} {
		idx := make([]int32, frontier)
		r := rand.New(rand.NewSource(1))
		for i := range idx {
			idx[i] = r.Int31n(space)
		}
		b.Run(fmt.Sprintf("map/frontier=%d", frontier), func(b *testing.B) {
			acc := NewAccumulator(frontier)
			for i := 0; i < b.N; i++ {
				for _, ix := range idx {
					acc.Add(ix, 1)
				}
				_ = acc.Take()
			}
		})
		b.Run(fmt.Sprintf("dense/frontier=%d", frontier), func(b *testing.B) {
			acc := NewDenseAccumulator(space)
			for i := 0; i < b.N; i++ {
				for _, ix := range idx {
					acc.Add(ix, 1)
				}
				_ = acc.TakeInto(Vector{}, 0)
			}
		})
	}
}
