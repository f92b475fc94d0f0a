package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q < 1) of sorted samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. It returns NaN for no samples.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// percentileOf sorts a copy of samples and returns its q-quantile.
func percentileOf(samples []int64, q float64) float64 {
	s := append([]int64(nil), samples...)
	slices.Sort(s)
	return percentile(s, q)
}

func mean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// median returns the middle value, the mean of the two middle values for an
// even count, and NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the benchmark's spreads are judged. Fewer than two values have no spread:
// both quartiles are the median.
func quartiles(values []float64) (q1, q3 float64) {
	if len(values) < 2 {
		return median(values), median(values)
	}
	s := append([]float64(nil), values...)
	slices.Sort(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)-j*4) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// highestPercentile picks from p99.99, p99.9, p99, p90 and p50 the highest
// one that leaves at least ten of n samples beyond it; p50 when none does.
func highestPercentile(n int) float64 {
	for _, oneIn := range []int{10000, 1000, 100, 10} {
		if n/oneIn >= 10 {
			return 1 - 1/float64(oneIn)
		}
	}
	return 0.5
}

// roundStats returns the q-quantile of each consecutive window of `window`
// rounds of samples — bounds[r] is the index where round r starts, with one
// more entry closing the last round. Windows without samples are skipped.
func roundStats(samples []int64, bounds []int, window int, q float64) []float64 {
	var per []float64
	for r := 0; r+window < len(bounds); r += window {
		if w := samples[bounds[r]:bounds[r+window]]; len(w) > 0 {
			per = append(per, percentileOf(w, q))
		}
	}
	return per
}

// roundStat is the median over the windows of roundStats.
func roundStat(samples []int64, bounds []int, window int, q float64) float64 {
	return median(roundStats(samples, bounds, window, q))
}
