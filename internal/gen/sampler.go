package gen

import (
	"math"
	"math/rand"
	"sort"
)

// ZipfSampler draws indices 0..n-1 with probability proportional to
// 1/(rank+1)^s via binary search over the cumulative weight table. s = 0
// degenerates to uniform sampling. It is the workhorse behind skewed author
// productivity and venue popularity, and is exported for workload
// generators (the serving benchmark's zipf_warm and zipf_spill streams are
// drawn through it).
type ZipfSampler struct {
	cum []float64
}

func NewZipfSampler(n int, s float64) *ZipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &ZipfSampler{cum: cum}
}

func (z *ZipfSampler) Sample(r *rand.Rand) int {
	x := r.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// SampleDistinct draws k distinct indices (k is clamped to n).
func (z *ZipfSampler) SampleDistinct(r *rand.Rand, k int) []int {
	n := len(z.cum)
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	// Rejection sampling is fine: k is tiny relative to n in all our uses,
	// and the fallback guarantees termination for pathological k/n ratios.
	for attempts := 0; len(out) < k && attempts < 20*k+100; attempts++ {
		i := z.Sample(r)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for i := 0; len(out) < k; i++ {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
