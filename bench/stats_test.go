package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := percentileOf([]int64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentileOf unsorted = %v, want 2", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	v := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0.5}, {100, 0.9}, {1000, 0.99}, {10_000, 0.999}, {200_000, 0.9999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestRoundStat(t *testing.T) {
	// Three rounds with medians 2, 20 and 200, and an empty fourth.
	samples := []int64{1, 2, 3, 10, 20, 30, 100, 200, 300}
	bounds := []int{0, 3, 6, 9, 9}
	if got := roundStat(samples, bounds, 1, 0.5); got != 20 {
		t.Errorf("median of per-round medians = %v, want 20", got)
	}
	// Windows of two rounds: {1,2,3,10,20,30} and {100,200,300}.
	if got := roundStat(samples, bounds, 2, 0.5); got != (3+200)/2.0 {
		t.Errorf("median of per-window medians = %v, want %v", got, (3+200)/2.0)
	}
}
