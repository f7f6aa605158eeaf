package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the "percentile" is a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// percentile returns the nearest-rank q-quantile of the samples. ok is
// false when there are no samples, or when q is above the median and fewer
// than minBeyond samples lie beyond it (the value is then not reported).
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := clamp(int(math.Ceil(q*float64(n))), 1, n) // 1-based
	return sortedCopy(samples)[rank-1], q <= 0.5 || n-rank >= minBeyond
}

// median is the 0.5 nearest-rank quantile, 0 for no samples.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// quartileSpread is the distance between the first and third quartile of
// the values as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(values, n=4) does (exclusive method), so
// -compare judges a result set the way the acceptance procedure does.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sortedCopy(values)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs((at(3) - at(1)) / med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to fractional milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
