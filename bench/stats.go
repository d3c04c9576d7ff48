package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the smallest sample with at least a share p of the
// samples at or below it: index ceil(p·n)−1 of the ascending order. For p90
// of 100 samples that is index 89, which leaves ten samples beyond it.
// xs must be sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the middle value, or the mean of the two middle values. It is
// what a run reports over its segment values. Zero for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method), so the spread
// a run reports is the spread the driver computes. With fewer than two
// values both are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j // position past s[j-1], in quarters
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// ratio is num/den, or 0 when there is nothing to divide by: a layer that
// did no work on a workload reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// summary is one metric of one workload in a run: the median over its
// segment values with the quartiles and the sample count.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(xs []float64, unit string) summary {
	q1, q3 := quartiles(xs)
	return summary{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}
