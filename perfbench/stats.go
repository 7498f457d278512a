package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before a
// sample set supports it: a tail percentile read from fewer points than
// this is one or two outliers, not a distribution.
const minBeyond = 10

// percentileLadder lists the percentiles the report considers, in
// increasing order, when it states the highest one a sample supports.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	// The epsilon keeps p·n/100 from rounding up past an exact rank
	// (99.9% of 10000 is 9990, not 9990.000000000002).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minBeyond of them
// above percentile p.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// highestPercentile returns the highest ladder percentile that n samples
// support, or 0 when they support none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p of xs, 0 for an empty
// sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs (the mean of the middle two for an even
// count), 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
