package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1, q2, q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness check agrees with the acceptance rule
// that is written in those terms. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// Python's integer arithmetic, clamping included.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, the value is set by a handful of outliers and does not
// repeat.
const minTail = 10

// reportedPercentiles are the percentiles a latency distribution may
// report, highest last.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest of reportedPercentiles that
// has at least minTail of n samples beyond it, or 0 when even the
// median does not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		if n-rank(p, n) >= minTail {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest rank of the p-th percentile of n samples;
// the tolerance keeps float rounding from moving an exact rank up.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := rank(p, len(s)) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
