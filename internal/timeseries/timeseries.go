// Package timeseries provides the time-series container and operations the
// lockdown analyses are built from: regular binning, resampling,
// normalisation against a reference value, daily totals and weekly means,
// and empirical CDFs.
//
// A Series is a sequence of (timestamp, value) points read in time order.
// A series whose points are added in non-decreasing time — every builder
// in this module — is in order by construction and is never sorted; one
// built out of order is stable-sorted once, on its first read. Slice cuts
// a sub-range by binary search in O(log n) and returns a view that shares
// the parent's points. The zero value is an empty, ready-to-use series.
package timeseries

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Point is a single observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of observations. Methods never modify their
// receiver unless documented otherwise; transforming methods return new
// series so pipelines can share inputs safely.
type Series struct {
	Name   string
	points []Point
	// unsorted is set by the first Add that goes back in time and cleared
	// by sort, so the zero value (and every series built in order) reads
	// as sorted.
	unsorted bool
}

// New returns an empty series with the given name.
func New(name string) *Series {
	return &Series{Name: name}
}

// Grow reserves room for n more points, so the next n Adds do not
// reallocate.
func (s *Series) Grow(n int) { s.points = slices.Grow(s.points, n) }

// Add appends an observation. It costs one comparison with the last point
// to keep track of whether the series is still in time order.
func (s *Series) Add(t time.Time, v float64) {
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].T) {
		s.unsorted = true
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// AddPoint appends an observation given as a Point.
func (s *Series) AddPoint(p Point) { s.Add(p.T, p.V) }

// sort puts the points in time order, keeping the insertion order of
// equal timestamps. It sorts a copy: a view returned by an earlier Slice
// may share the old array, and its points must not move.
func (s *Series) sort() {
	if !s.unsorted {
		return
	}
	s.points = slices.Clone(s.points)
	sort.SliceStable(s.points, func(i, j int) bool { return s.points[i].T.Before(s.points[j].T) })
	s.unsorted = false
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.points) }

// Points returns the observations in time order. The returned slice must
// not be modified.
func (s *Series) Points() []Point {
	s.sort()
	return s.points
}

// Values returns just the observation values in time order.
func (s *Series) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.V
	}
	return out
}

// Total returns the sum of all values.
func (s *Series) Total() float64 {
	var t float64
	for _, p := range s.points {
		t += p.V
	}
	return t
}

// Mean returns the mean value, or NaN for an empty series.
func (s *Series) Mean() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	return s.Total() / float64(len(s.points))
}

// Min returns the smallest value, or NaN for an empty series.
func (s *Series) Min() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	m := s.points[0].V
	for _, p := range s.points[1:] {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Max returns the largest value, or NaN for an empty series.
func (s *Series) Max() float64 {
	if len(s.points) == 0 {
		return math.NaN()
	}
	m := s.points[0].V
	for _, p := range s.points[1:] {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Slice returns the sub-series with from <= t < to. It finds the range by
// binary search, O(log n), and returns a view that shares the receiver's
// points. The view's capacity ends at its last point, so an Add to it
// reallocates and never reaches the receiver, and no method writes a
// point in place, so the receiver and its views cannot change each other.
func (s *Series) Slice(from, to time.Time) *Series {
	pts := s.Points()
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].T.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return !pts[i].T.Before(to) })
	hi = max(hi, lo)
	return &Series{Name: s.Name, points: pts[lo:hi:hi]}
}

// Resample aggregates observations into regular bins of the given width.
// Each output point is stamped with the bin start and carries the sum of
// the input values falling into the bin. Empty bins between the first and
// last observation are emitted with value zero so downstream hour-of-day
// profiles see a complete grid.
func (s *Series) Resample(bin time.Duration) *Series {
	if bin <= 0 {
		panic("timeseries: non-positive bin width")
	}
	s.sort()
	out := New(s.Name)
	if len(s.points) == 0 {
		return out
	}
	start := s.points[0].T.Truncate(bin)
	end := s.points[len(s.points)-1].T.Truncate(bin).Add(bin)
	sums := make(map[time.Time]float64)
	for _, p := range s.points {
		sums[p.T.Truncate(bin)] += p.V
	}
	for t := start; t.Before(end); t = t.Add(bin) {
		out.Add(t, sums[t])
	}
	return out
}

// Normalize divides every value by ref and returns the result. A zero or
// non-finite ref yields a series of NaNs; callers normally pass the
// baseline-week mean or the series minimum.
func (s *Series) Normalize(ref float64) *Series {
	out := New(s.Name)
	for _, p := range s.Points() {
		if ref == 0 || math.IsNaN(ref) || math.IsInf(ref, 0) {
			out.Add(p.T, math.NaN())
			continue
		}
		out.Add(p.T, p.V/ref)
	}
	return out
}

// NormalizeByMax normalises by the series maximum, the convention of
// Figure 2a.
func (s *Series) NormalizeByMax() *Series { return s.Normalize(s.Max()) }

// DailyTotals sums values per UTC day and returns a new series stamped at
// day midnights.
func (s *Series) DailyTotals() *Series {
	return s.Resample(24 * time.Hour)
}

// WeeklyMeans averages values per ISO calendar week. The result maps the
// ISO week number to the mean of the observations in that week. The study
// window lies within one year, so the year component is dropped.
func (s *Series) WeeklyMeans() map[int]float64 {
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, p := range s.Points() {
		_, w := p.T.UTC().ISOWeek()
		sums[w] += p.V
		counts[w]++
	}
	out := make(map[int]float64, len(sums))
	for w, sum := range sums {
		out[w] = sum / float64(counts[w])
	}
	return out
}

// Filter returns the sub-series of points satisfying keep.
func (s *Series) Filter(keep func(Point) bool) *Series {
	out := New(s.Name)
	for _, p := range s.Points() {
		if keep(p) {
			out.AddPoint(p)
		}
	}
	return out
}
