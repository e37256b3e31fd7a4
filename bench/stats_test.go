package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.99, 7},
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p90 of ten", ten, 0.9, 9},
		{"p99 of ten rounds up to the max", ten, 0.99, 10},
		{"p0 clamps to the min", ten, 0, 1},
		{"p51 moves to the next rank", ten, 0.51, 6},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {500, 0.98},
		{600, 0.98}, {999, 0.98}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(tc.values); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}
