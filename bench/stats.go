package main

import (
	"math"
	"sort"
)

// minOf returns the smallest value (NaN for an empty slice). Interference
// only ever adds time to a deterministic CPU-bound child, so the fastest
// iteration is the repeatable estimator of wall and cpu time.
func minOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Min(m, x)
	}
	return m
}

// maxOf returns the largest value (NaN for an empty slice).
func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns the first, second and third quartile of v with the
// method of Python's statistics.quantiles(v, n=4) (the "exclusive"
// default), so a spread computed here equals the one the acceptance
// procedure computes from the same values. One value is its own quartiles;
// none gives NaN.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
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
	return cut(1), cut(2), cut(3)
}

// median returns the second quartile of v.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise figure each end-to-end metric must
// keep below its bound.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	return (q3 - q1) / m
}

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals, each clipped
// to [lo, hi); overlapping stretches count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = lo
	for _, iv := range clipped {
		if iv.start > reach {
			reach = iv.start
		}
		if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children running concurrently (source calls under -parallel N) overlap,
// which is why the union and not the sum is subtracted.
func selfTime(span interval, children []interval) int64 {
	return (span.end - span.start) - unionLen(children, span.start, span.end)
}

// worsening returns by what share of base the value val is worse, given
// the metric's direction; negative means val is better. A metric is within
// its bound when this is at most the bound.
func worsening(base, val float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return (val - base) / base
	}
	return (base - val) / base
}
