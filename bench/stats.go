package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p·n samples at or below it. It never
// interpolates, so every reported latency is one a client really observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9)) // 0.9·100 is 90.00000000000001 in floating point
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedPercentile is the highest percentile of the ladder that still
// leaves at least ten samples beyond it; below 20 samples only the median
// is supported.
func supportedPercentile(n int) float64 {
	best := 0.5
	for _, perMille := range []int{900, 950, 980, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// median is the middle value (mean of the middle two for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) — the repeatability measure the
// benchmark contract applies to ten runs. Fewer than two values spread 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}
