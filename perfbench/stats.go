package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error in p·n/100 (99.9·10000/100 is
	// 9990.000000000002) from pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLevels are the percentiles a timing's tail is reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the reporting rule for a timing's tail: the highest of
// tailLevels that still has at least ten samples beyond it. ok is false
// when even the median has fewer than ten samples above it.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailLevels {
		if n-rank(n, p) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// describe renders a timing as its median, its tail by the reporting rule
// and its sample count, e.g. "p50=1.203 p95=1.410 n=240".
func describe(xs []float64) string {
	s := fmt.Sprintf("p50=%.4g", median(xs))
	if p, v, ok := tail(xs); ok && p > 50 {
		s += fmt.Sprintf(" p%g=%.4g", p, v)
	}
	return s + fmt.Sprintf(" n=%d", len(xs))
}
