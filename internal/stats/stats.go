// Package stats provides the scalar summaries of a sample of claim values
// over seeds and scales: its quantiles and its extremes. Nothing outside
// its tests calls it yet; it is kept as the summariser of the fidelity
// sweep that is to pin each claim's band. It stays tiny and
// dependency-free; anything more elaborate lives in package timeseries.
package stats

import (
	"math"
	"sort"
)

// Min returns the smallest element of xs, or NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics (type-7 estimator, the R and NumPy default). q is clamped
// to [0, 1]. The input is not modified. Empty input yields NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
