package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it. It is
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the p-quantile of xs by the default "exclusive" method of
// Python's statistics.quantiles: the (n+1)·p-th order statistic,
// interpolated linearly between the two nearest ranks, which are kept
// inside 1..n, so that it extrapolates a little for few samples.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := sorted(xs)
	pos := p * float64(n+1) // 1-based rank
	j := int(math.Floor(pos))
	j = min(max(j, 1), n-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// quartiles returns the first quartile, the median and the third
// quartile of xs, as statistics.quantiles(xs, n=4) gives them (which
// needs two samples; one sample is its own quartiles here).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
}

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the p-quantile of xs and whether it may be
// reported, which needs at least minBeyond samples above it.
func percentile(xs []float64, p float64) (float64, bool) {
	beyond := int(math.Floor(float64(len(xs))*(1-p) + 1e-9)) // 1e-9 absorbs 0.1 not being exact
	if beyond < minBeyond {
		return 0, false
	}
	return quantile(xs, p), true
}

// geomean is the geometric mean of xs, which must all be positive; it
// is 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
