package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by
// nearest rank, or NaN for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the conventional one (the mean of the two middle values of
// an even-sized sample), as the acceptance rule compares medians of runs;
// it leaves xs alone.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(1), q(2), q(3)
}
