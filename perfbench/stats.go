package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported high
// percentile: a tail figure resting on fewer samples is mostly noise.
const minBeyond = 10

// nearestRank returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending sample slice: the smallest sample with at least p% of all
// samples at or below it. An empty slice yields NaN.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// highPercentile returns the nearest-rank p-th percentile of an ascending
// slice, lowered as needed so that at least minBeyond samples lie beyond
// it, together with the percentile actually reported. With minBeyond or
// fewer samples no such percentile exists and the median is returned.
func highPercentile(sorted []float64, p float64) (value, reported float64) {
	n := len(sorted)
	if n <= minBeyond {
		return nearestRank(sorted, 50), 50
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r > n-minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		r = 1
	}
	return sorted[r-1], 100 * float64(r) / float64(n)
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 { return nearestRank(sortedCopy(xs), 50) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
