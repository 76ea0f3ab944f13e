package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark will report it as a tail: fewer, and one stray sample moves
// the figure.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be fixed at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// beyond counts how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p) - 1
}

// rank is the zero-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float rounding (99.9% of 10000 is not exactly
	// 9990 in binary) from moving the rank up by one.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median of vs (the mean of the middle two when their number is even),
// 0 when empty.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
