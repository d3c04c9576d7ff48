package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Reference kernels: the implementations Dot and Sum replaced, and the dense
// drain restated over its Add log, kept as the oracle the production kernels
// must match Float64bits for Float64bits (and, for Dot and Sum, as the
// "before" arm of the benchmarks that place the crossover constants).

// refDot is the linear merge over both index lists.
func refDot(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// refSum accumulates through the map-backed Accumulator.
func refSum(vs []Vector) Vector {
	acc := NewAccumulator(0)
	for _, v := range vs {
		for k, ix := range v.Idx {
			acc.Add(ix, v.Val[k])
		}
	}
	return acc.Take()
}

// refDrain is the drain's oracle and shares nothing with the dense scratch:
// the Add log sorted by coordinate (stably, so each coordinate keeps its
// order of addition), summed per coordinate onto +0, exact zeros dropped,
// base added. It also returns how many distinct coordinates the log names.
func refDrain(log []coord, base int32) (out Vector, distinct int) {
	log = slices.Clone(log)
	slices.SortStableFunc(log, func(a, b coord) int { return cmp.Compare(a.ix, b.ix) })
	for i := 0; i < len(log); {
		var sum float64
		j := i
		for ; j < len(log) && log[j].ix == log[i].ix; j++ {
			sum += log[j].x
		}
		if sum != 0 {
			out.Idx, out.Val = append(out.Idx, log[i].ix+base), append(out.Val, sum)
		}
		i, distinct = j, distinct+1
	}
	return out, distinct
}

// bitsEqual is Equal with values compared by Float64bits, so +0/−0 and NaN
// payloads count.
func bitsEqual(a, b Vector) bool {
	if len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// orderSensitive are values whose sums depend on the order of addition and
// that cancel exactly in pairs; negZero is stored on purpose although the
// constructors would drop it.
var (
	negZero        = math.Copysign(0, -1)
	orderSensitive = []float64{1, -1, 2, -2, 0.1, -0.1, 1.0 / 3, 1e16, -1e16, 1e-300, negZero}
)

// rawVector draws n distinct coordinates from [base, base+width) with
// order-sensitive values, bypassing the zero-dropping constructors.
func rawVector(r *rand.Rand, n int, base int32, width int) Vector {
	n = min(n, width)
	seen := make(map[int32]bool, n)
	v := Vector{}
	for len(v.Idx) < n {
		ix := base + int32(r.Intn(width))
		if !seen[ix] {
			seen[ix] = true
			v.Idx = append(v.Idx, ix)
		}
	}
	slices.Sort(v.Idx)
	for range v.Idx {
		v.Val = append(v.Val, orderSensitive[r.Intn(len(orderSensitive))])
	}
	return v
}

func checkDot(a, b Vector) error {
	for _, p := range [][2]Vector{{a, b}, {b, a}} {
		got, want := p[0].Dot(p[1]), refDot(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("Dot = %x, merge = %x (|a|=%d |b|=%d)",
				math.Float64bits(got), math.Float64bits(want), p[0].NNZ(), p[1].NNZ())
		}
	}
	return nil
}

// checkDirectory holds a dotted against S's directory to the merge and
// Norm2Sq, bit for bit, both for the directory the density rule gives S and
// for one built whatever S's density (while its span is small enough).
func checkDirectory(a, s Vector) error {
	dirs := []Directory{NewDirectory(s)}
	if n := len(s.Idx); n > 0 && int64(s.Idx[n-1])-int64(s.Idx[0]) < 1<<22 {
		dirs = append(dirs, buildDirectory(s))
	}
	wantDot, wantVis := refDot(a, s), a.Norm2Sq()
	for _, d := range dirs {
		dot, vis := d.DotNorm(a)
		if math.Float64bits(dot) != math.Float64bits(wantDot) || math.Float64bits(vis) != math.Float64bits(wantVis) {
			return fmt.Errorf("DotNorm = %x, %x; merge, Norm2Sq = %x, %x (|a|=%d |S|=%d, %d directory words)",
				math.Float64bits(dot), math.Float64bits(vis), math.Float64bits(wantDot), math.Float64bits(wantVis),
				a.NNZ(), s.NNZ(), len(d.occ))
		}
	}
	return nil
}

// Dot and the directory kernel must equal the merge bit for bit across skew
// ratios 1:1 … 1:4096 and every span relation: nested, overlapping, disjoint
// on either side, empty.
func TestQuickDotMatchesMerge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, ratio := range []int{1, 2, 4, 7, 8, 9, 16, 64, 512, 4096} {
			short := r.Intn(9) // 0 … 8 coordinates, empty included
			long := max(short, 1) * ratio
			width := long * (1 + r.Intn(3))
			b := rawVector(r, long, 1000, width)
			for _, a := range []Vector{
				rawVector(r, short, 1000, width),                                           // nested
				rawVector(r, short, 1000+int32(width)/2, width),                            // overlapping the tail
				rawVector(r, short, 0, 1000),                                               // disjoint below
				rawVector(r, short, 1000+int32(width), 1000),                               // disjoint above
				rawVector(r, short, 0, 2000+width),                                         // containing
				{Idx: b.Idx[:min(short, len(b.Idx))], Val: b.Val[:min(short, len(b.Idx))]}, // shared prefix: all hits
				{},
			} {
				for _, err := range []error{checkDot(a, b), checkDirectory(a, b), checkDirectory(b, a)} {
					if err != nil {
						t.Logf("seed %d ratio %d: %v", seed, ratio, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkSum holds Sum to the map sum, and WeightedSum to the map sum of the
// vectors scaled first, zero weights (either sign) included.
func checkSum(vs []Vector) error {
	got, want := Sum(vs), refSum(vs)
	if !bitsEqual(got, want) {
		return fmt.Errorf("Sum = %v, map sum = %v", got, want)
	}
	w := make([]float64, len(vs))
	scaled := make([]Vector, len(vs))
	for j, v := range vs {
		w[j] = []float64{1.0 / 3, 0, 2, -0.1, 1e16, negZero}[j%6]
		scaled[j] = v.Scale(w[j])
	}
	if got, want := WeightedSum(vs, w), refSum(scaled); !bitsEqual(got, want) {
		return fmt.Errorf("WeightedSum = %v, map sum of the scaled vectors = %v", got, want)
	}
	return nil
}

// cancelling returns k vectors over one small coordinate block in which
// many coordinates cancel to exactly 0 mid-way and are touched again later.
func cancelling(r *rand.Rand, k int, base int32, width int) []Vector {
	vs := make([]Vector, 0, 2*k)
	for i := 0; i < k; i++ {
		v := rawVector(r, 1+r.Intn(width), base, width)
		neg := v.Scale(-1)
		vs = append(vs, v, neg, rawVector(r, 1+r.Intn(width), base, width))
	}
	return vs
}

// Sum must equal the map accumulation bit for bit: narrow and negative
// spans, exact cancellation with re-touch, −0, empty operands, strided
// CombineConcat blocks, and spans on both sides of the dense cap.
func TestQuickSumMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		random := make([]Vector, k)
		for i := range random {
			random[i] = rawVector(r, r.Intn(40), int32(r.Intn(100)), 1+r.Intn(300))
		}
		const stride = 1 << 20
		concat := func(blocks int) []Vector {
			vs := make([]Vector, 1+r.Intn(4))
			for i := range vs {
				for m := 0; m < blocks; m++ {
					blk := rawVector(r, r.Intn(6), int32(m*stride)+int32(r.Intn(50)), 64)
					vs[i].Idx = append(vs[i].Idx, blk.Idx...)
					vs[i].Val = append(vs[i].Val, blk.Val...)
				}
			}
			return vs
		}
		for name, vs := range map[string][]Vector{
			"random":     random,
			"cancelling": cancelling(r, 1+r.Intn(4), int32(r.Intn(1000)), 1+r.Intn(32)),
			"negative":   cancelling(r, 2, -500, 1000),
			"empties":    {{}, rawVector(r, 5, 7, 50), {}, {}},
			"allEmpty":   {{}, {}},
			"none":       nil,
			"concat3":    concat(3), // 3 strides: dense
			"concat6":    concat(6), // 6 strides: past the cap, map fallback
			"atCap":      {{Idx: []int32{5, 5 + MaxDenseSpan - 1}, Val: []float64{0.1, negZero}}, {Idx: []int32{5}, Val: []float64{-0.1}}},
			"pastCap":    {{Idx: []int32{5, 5 + MaxDenseSpan}, Val: []float64{0.1, 1}}, {Idx: []int32{5 + MaxDenseSpan}, Val: []float64{1e16}}},
			"extremes":   {{Idx: []int32{math.MinInt32, math.MaxInt32}, Val: []float64{1, 2}}},
		} {
			if err := checkSum(vs); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// takeSequences draws Add sequences of every density: a dense cluster, a
// sparse scatter, a cluster with one far outlier, one slot, nothing.
// Roughly a third of the adds cancel an earlier one exactly, and cancelled
// coordinates are touched again.
func takeSequences(r *rand.Rand, size int) [][]coord {
	draw := func(n, base, width int) []coord {
		var s []coord
		for i := 0; i < n; i++ {
			c := coord{int32(base + r.Intn(width)), orderSensitive[r.Intn(len(orderSensitive))]}
			s = append(s, c)
			if r.Intn(3) == 0 {
				s = append(s, coord{c.ix, -c.x})
			}
			if r.Intn(4) == 0 {
				s = append(s, coord{c.ix, orderSensitive[r.Intn(len(orderSensitive))]})
			}
		}
		return s
	}
	return [][]coord{
		draw(1+r.Intn(200), r.Intn(size/2), 64),
		draw(1+r.Intn(50), 0, size),
		append(draw(1+r.Intn(100), r.Intn(64), 32), coord{int32(size - 1), 3}),
		draw(1, r.Intn(size), 1),
		nil,
	}
}

// checkDrained holds a drained scratch to its resting state: no mark, no
// summary bit, every slot +0 (not −0).
func checkDrained(acc *DenseAccumulator) error {
	if acc.Len() != 0 {
		return fmt.Errorf("Len = %d after a drain", acc.Len())
	}
	for _, words := range [][]uint64{acc.mark, acc.sum} {
		for w, m := range words {
			if m != 0 {
				return fmt.Errorf("bitmap word %d = %x after a drain", w, m)
			}
		}
	}
	for ix, x := range acc.val {
		if math.Float64bits(x) != 0 {
			return fmt.Errorf("scratch[%d] = %x after a drain", ix, math.Float64bits(x))
		}
	}
	return nil
}

// checkTake replays s into an empty acc and checks the drain against it.
func checkTake(acc *DenseAccumulator, s []coord, buf Vector, base int32) (Vector, error) {
	for _, c := range s {
		acc.Add(c.ix, c.x)
	}
	return checkDrain(acc, s, buf, base)
}

// checkDrain compares acc.TakeInto(buf, base) with the sorted log of the adds
// acc holds; it returns the taken vector.
func checkDrain(acc *DenseAccumulator, log []coord, buf Vector, base int32) (Vector, error) {
	want, distinct := refDrain(log, base)
	if acc.Len() != distinct {
		return Vector{}, fmt.Errorf("Len = %d, want %d", acc.Len(), distinct)
	}
	got := acc.TakeInto(buf, base)
	if !bitsEqual(got, want) {
		return got, fmt.Errorf("Take = %v, sorted log = %v", got, want)
	}
	return got, checkDrained(acc)
}

// Take (fresh or into a recycled buffer, with or without a base) must equal
// the sorted Add log bit for bit and leave the scratch all +0.
func TestQuickTakeMatchesSortedLog(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const size = 1 << 12
		acc := NewDenseAccumulator(size)
		var buf Vector
		for round := 0; round < 3; round++ {
			for i, s := range takeSequences(r, size) {
				b := buf
				if r.Intn(2) == 0 {
					b = Vector{} // fresh output
				}
				got, err := checkTake(acc, s, b, int32(r.Intn(3)-1)*1000)
				if err != nil {
					t.Logf("seed %d round %d seq %d: %v", seed, round, i, err)
					return false
				}
				if cap(got.Idx) > cap(buf.Idx) {
					buf = got // recycle the grown buffer, like the traverser's hop buffers
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The places a two-level bitmap can go wrong, each against the sorted log.
func TestTakeBitmapEdges(t *testing.T) {
	const size = 64*64 + 130 // two summary words, the last mark word partial
	edges := []coord{{63, 1}, {64, 2}, {127, 3}, {128, 4}, {0, 5}, {4095, 6}, {4096, 7}, {size - 1, 8}}
	for name, s := range map[string][]coord{
		"word and summary boundaries": edges,
		"descending":                  {{size - 1, 8}, {4096, 7}, {4095, 6}, {128, 4}, {127, 3}, {64, 2}, {63, 1}, {0, 5}},
		"re-touched after a cancel":   {{70, 0.1}, {70, -0.1}, {70, 1e-300}, {9, 1}, {9, -1}},
		"zeros only":                  {{5, 0}, {64, negZero}, {4100, 0}, {4100, negZero}},
		"−0 onto a value":             {{5, negZero}, {5, 2}, {5, negZero}, {6, negZero}, {6, 0}},
		"one word full": func() (s []coord) {
			for ix := int32(128); ix < 192; ix++ {
				s = append(s, coord{ix, float64(ix)})
			}
			return s
		}(),
		"nothing": nil,
	} {
		acc := NewDenseAccumulator(size)
		for _, base := range []int32{0, 1 << 20, -7} {
			if _, err := checkTake(acc, s, Vector{}, base); err != nil {
				t.Errorf("%s, base %d: %v", name, base, err)
			}
		}
	}

	t.Run("Grow between adds", func(t *testing.T) {
		acc := NewDenseAccumulator(0)
		acc.Grow(65)
		log := []coord{{64, 1}, {3, 0.1}, {3, -0.1}, {0, negZero}}
		for _, c := range log {
			acc.Add(c.ix, c.x)
		}
		acc.Grow(64*64*3 + 1) // more mark words and a second summary word
		for _, c := range []coord{{64 * 64 * 3, 2}, {64, 1}, {3, 5}} {
			acc.Add(c.ix, c.x)
			log = append(log, c)
		}
		acc.Grow(2 * acc.Size())
		if _, err := checkDrain(acc, log, Vector{}, 0); err != nil {
			t.Fatalf("marks and values pending across Grow: %v", err)
		}
	})

	t.Run("Reset after a partial fill", func(t *testing.T) {
		acc := NewDenseAccumulator(size)
		for _, c := range edges {
			acc.Add(c.ix, c.x)
		}
		acc.TakeInto(Vector{}, 0)
		if err := checkDrained(acc); err != nil {
			t.Fatal(err)
		}
		if _, err := checkTake(acc, edges[2:5], Vector{}, 0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("two fills through one scratch", func(t *testing.T) {
		// Sum's pool: one scratch, successive callers with their own span and
		// base, the second reading nothing of the first.
		acc := NewDenseAccumulator(size)
		buf := Vector{Idx: make([]int32, 0, 2), Val: make([]float64, 0, 2)} // too small for either
		first, err := checkTake(acc, edges, buf, 100)
		if err != nil {
			t.Fatal(err)
		}
		kept := first.Clone()
		if _, err := checkTake(acc, []coord{{64, -2}, {63, 9}, {4097, 1}}, buf, -100); err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(first, kept) {
			t.Errorf("a later drain rewrote an earlier result: %v, was %v", first, kept)
		}
		a := Vector{Idx: []int32{-3, 900}, Val: []float64{1, 2}}
		b := Vector{Idx: []int32{5000, 5001}, Val: []float64{3, 4}}
		for _, vs := range [][]Vector{{a, a}, {b}, {a, b, a}} {
			if err := checkSum(vs); err != nil {
				t.Error(err)
			}
		}
	})
}

// TakeInto writes into the buffer exactly when it has room for every
// marked coordinate, and one into no buffer never hands out scratch.
func TestTakeIntoBuffer(t *testing.T) {
	acc := NewDenseAccumulator(64)
	buf := Vector{Idx: make([]int32, 0, 4), Val: make([]float64, 0, 4)}
	for _, ix := range []int32{9, 3, 7} {
		acc.Add(ix, float64(ix))
	}
	got := acc.TakeInto(buf, 0)
	if !got.Equal(FromMap(map[int32]float64{3: 3, 7: 7, 9: 9})) {
		t.Fatalf("TakeInto = %v", got)
	}
	if &got.Idx[0] != &buf.Idx[:1][0] || &got.Val[0] != &buf.Val[:1][0] {
		t.Error("TakeInto with room should write into the buffer")
	}
	for ix := int32(0); ix < 5; ix++ {
		acc.Add(ix, 1)
	}
	big := acc.TakeInto(buf, 0)
	if big.NNZ() != 5 || &big.Idx[0] == &buf.Idx[:1][0] {
		t.Errorf("TakeInto without room should allocate, got %v", big)
	}
	acc.Add(1, 1)
	fresh := acc.TakeInto(Vector{}, 0)
	acc.Add(2, 1)
	if again := acc.TakeInto(Vector{}, 0); &fresh.Idx[0] == &again.Idx[0] || fresh.Idx[0] != 1 {
		t.Error("Take results must not share storage")
	}
}

// A scratch that outgrew MaxDenseSpan must not ride the pool: whatever the
// pool hands out after an oversized call is within the cap.
func TestSumScratchRetentionBounded(t *testing.T) {
	// The next Grow past 5/8 of the cap doubles the scratch beyond it.
	sumScratch.Put(NewDenseAccumulator(MaxDenseSpan * 5 / 8))
	wide := Vector{Idx: []int32{0, MaxDenseSpan * 7 / 8}, Val: []float64{1, 2}}
	if got := Sum([]Vector{wide, wide}); !got.Equal(wide.Scale(2)) {
		t.Fatalf("Sum = %v", got)
	}
	for i := 0; i < 8; i++ {
		if acc := sumScratch.Get().(*DenseAccumulator); acc.Size() > MaxDenseSpan {
			t.Fatalf("pool retained a scratch of %d entries, cap %d", acc.Size(), MaxDenseSpan)
		}
	}
}

// FuzzSparseKernels decodes arbitrary bytes into a handful of vectors and
// an Add sequence and holds Dot, the directory kernel, Sum and Take to their
// reference kernels. The seeds cover: empty input, a lopsided pair (gallop),
// cancelling blocks, a strided pair, a far outlier, the bitmap's word
// boundaries, and the directory's edges.
func FuzzSparseKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 200, 3, 1, 7, 2, 9, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{4, 4, 1, 1, 1, 2, 1, 1, 1, 3, 1, 10, 1, 11, 1, 0, 1, 1})
	f.Add([]byte{2, 2, 255, 1, 255, 2, 255, 3, 255, 4})
	f.Add([]byte{3, 3, 1, 1, 2, 2, 250, 250, 250, 250, 250, 250, 250, 250, 9})
	// No vectors, then adds on both sides of the bitmap's word boundaries:
	// slots 63, 64, 127, 128, 192, 1 020 and 63 again, every third of them
	// cancelled and re-touched.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 63, 0, 64, 0, 127, 0, 128, 0, 64, 2, 255, 3, 63, 0})
	// The directory, a = Φ against b = S. Φ ⊄ S (a COMPARED TO set): Φ at
	// 1, 12, 15, 19, 50 against S at 12, 13, 19 — below, hit, between, hit,
	// above.
	f.Add([]byte{5, 3, 64, 0, 1, 10, 2, 2, 3, 3, 4, 30, 5, 74, 1, 6, 0, 7, 5, 8})
	// S = {1, hi} spanning 63, 64 and 65 IDs (hi = 63, 64, 65: one word, one
	// full word, two words), Φ at 0, 1, 63, 64, 65, 66.
	for _, gap := range []byte{61, 62, 63} {
		f.Add([]byte{6, 2, 63, 0, 1, 0, 2, 61, 3, 0, 4, 0, 5, 0, 6, 64, 0, 7, gap, 8})
	}
	// A one-coordinate S at 2, and an empty S, under Φ at 1, 2, 3.
	f.Add([]byte{3, 1, 64, 0, 1, 0, 2, 0, 3, 65, 0, 4})
	f.Add([]byte{3, 0, 64, 0, 1, 0, 2, 0, 3, 64})
	// S = {1, 128} (two words for two coordinates: a directory) and
	// S = {1, 129} (three: Dot), Φ at 1, 127, 128, 129.
	for _, gap := range []byte{126, 127} {
		f.Add([]byte{4, 2, 64, 0, 1, 125, 2, 0, 3, 0, 4, 64, 0, 5, gap, 6})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pop := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		// A vector is a run of (gap, value) bytes; gap 255 jumps a stride,
		// large enough that a few of them cross the dense cap.
		decode := func(n int) Vector {
			var v Vector
			ix := int32(pop()) - 64
			for i := 0; i < n; i++ {
				gap := pop()
				if gap == 255 {
					gap = MaxDenseSpan / 3
				}
				ix += int32(gap) + 1
				v.Idx = append(v.Idx, ix)
				v.Val = append(v.Val, orderSensitive[pop()%len(orderSensitive)])
			}
			return v
		}
		na, nb := pop()%8, pop()
		a, b := decode(na), decode(nb)
		for _, err := range []error{checkDot(a, b), checkDirectory(a, b), checkDirectory(b, a)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		vs := []Vector{a, b, a.Scale(-1), decode(pop() % 16), b}
		if err := checkSum(vs); err != nil {
			t.Fatal(err)
		}
		const size = 1 << 10
		acc := NewDenseAccumulator(size)
		var s []coord
		for len(data) >= 2 {
			ix := int32(pop()) * int32(1+pop()%4) // 0 … 1020, clustered low
			s = append(s, coord{ix, orderSensitive[int(ix)%len(orderSensitive)]})
			if ix%3 == 0 {
				s = append(s, coord{ix, -s[len(s)-1].x}, coord{ix, 2})
			}
		}
		if _, err := checkTake(acc, s, Vector{}, int32(len(s))); err != nil {
			t.Fatal(err)
		}
	})
}

var (
	sinkFloat  float64
	sinkVector Vector
)

// benchVector draws n sorted distinct coordinates from [0, width).
func benchVector(r *rand.Rand, n, width int) Vector {
	v := rawVector(r, n, 0, width)
	for i := range v.Val {
		v.Val[i] = float64(1 + r.Intn(9))
	}
	return v
}

// BenchmarkDot places gallopRatio: merge (the reference kernel) against
// gallop across length ratios, for a scoring-sized long operand (a 4 096
// coordinate S) and a small one (256). "pick" is the production Dot; at
// ratio 1 it must not lose to merge (the balanced zipf_warm case). "dir" is
// the short operand dotted against the long one's directory (16 coordinates
// per word), its norm included.
//
// The density/ rows place dirMaxWordsPerCoord: a candidate Φ ⊂ S of 3/16 of
// S's coordinates (the zipf_warm shape: ~370 of ~2 150) scored by
// Dot + Norm2Sq ("dot") and by DotNorm ("dir"), and the directory's build, at
// S densities from 1/16 to 64 coordinates per 64-ID word.
func BenchmarkDot(b *testing.B) {
	for _, nnz := range []int{64, 2048} {
		for _, density := range []float64{1.0 / 16, 1.0 / 4, 1, 4, 16, 64} {
			r := rand.New(rand.NewSource(1))
			s := benchVector(r, nnz, int(64*float64(nnz)/density))
			phi := Vector{}
			for k := range s.Idx {
				if r.Intn(16) < 3 {
					phi.Idx, phi.Val = append(phi.Idx, s.Idx[k]), append(phi.Val, float64(1+r.Intn(9)))
				}
			}
			d := buildDirectory(s)
			for _, arm := range []struct {
				name string
				run  func()
			}{
				{"dot", func() { sinkFloat = phi.Dot(s) + phi.Norm2Sq() }},
				{"dir", func() { dot, vis := d.DotNorm(phi); sinkFloat = dot + vis }},
				{"build", func() { d := buildDirectory(s); sinkFloat = float64(d.rank[len(d.rank)-1]) }},
			} {
				b.Run(fmt.Sprintf("density/%s/nnz=%d/per_word=%g", arm.name, nnz, density), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						arm.run()
					}
				})
			}
		}
	}
	for _, long := range []int{256, 4096} {
		for _, ratio := range []int{1, 2, 4, 8, 16, 64, 512} {
			if long/ratio == 0 {
				continue
			}
			r := rand.New(rand.NewSource(1))
			l := benchVector(r, long, 4*long)
			s := benchVector(r, long/ratio, 4*long)
			d := NewDirectory(l)
			dir := func(a, _ Vector) float64 { dot, _ := d.DotNorm(a); return dot }
			for _, arm := range []struct {
				name string
				dot  func(a, b Vector) float64
			}{{"merge", refDot}, {"gallop", dotGallop}, {"pick", Vector.Dot}, {"dir", dir}} {
				b.Run(fmt.Sprintf("%s/long=%d/ratio=%d", arm.name, long, ratio), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkFloat = arm.dot(s, l)
					}
				})
			}
		}
	}
}

// BenchmarkSum compares the pooled dense Sum with the map reference over
// k vectors × nnz coordinates drawn from a 4 096-wide block (the reference
// reduction of one query: |Sr| = k).
func BenchmarkSum(b *testing.B) {
	for _, k := range []int{4, 32, 256} {
		for _, nnz := range []int{4, 64} {
			r := rand.New(rand.NewSource(1))
			vs := make([]Vector, k)
			for i := range vs {
				vs[i] = benchVector(r, nnz, 4096)
			}
			for _, arm := range []struct {
				name string
				sum  func([]Vector) Vector
			}{{"map", refSum}, {"dense", Sum}} {
				b.Run(fmt.Sprintf("%s/k=%d/nnz=%d", arm.name, k, nnz), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkVector = arm.sum(vs)
					}
				})
			}
		}
	}
}
