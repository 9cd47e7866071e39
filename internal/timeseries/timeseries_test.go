package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)

func hourly(vals ...float64) *Series {
	s := New("test")
	for i, v := range vals {
		s.Add(t0.Add(time.Duration(i)*time.Hour), v)
	}
	return s
}

func TestAddSortAndLen(t *testing.T) {
	s := New("x")
	s.Add(t0.Add(2*time.Hour), 3)
	s.Add(t0, 1)
	s.Add(t0.Add(time.Hour), 2)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T.Before(pts[i-1].T) {
			t.Fatal("points not sorted by time")
		}
	}
	if vals := s.Values(); vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
		t.Errorf("Values = %v", vals)
	}
	if !pts[0].T.Equal(t0) {
		t.Errorf("Points[0].T = %v", pts[0].T)
	}
}

func TestTotalMeanMinMax(t *testing.T) {
	s := hourly(2, 4, 6)
	if s.Total() != 12 || s.Mean() != 4 || s.Min() != 2 || s.Max() != 6 {
		t.Errorf("stats wrong: total=%v mean=%v min=%v max=%v", s.Total(), s.Mean(), s.Min(), s.Max())
	}
	empty := New("e")
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Min()) || !math.IsNaN(empty.Max()) {
		t.Error("empty series stats should be NaN")
	}
}

func TestSlice(t *testing.T) {
	s := hourly(1, 2, 3, 4, 5)
	sub := s.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if sub.Len() != 2 || sub.Values()[0] != 2 || sub.Values()[1] != 3 {
		t.Errorf("Slice = %v", sub.Values())
	}
}

func TestResamplePreservesTotal(t *testing.T) {
	s := New("x")
	for i := 0; i < 48; i++ {
		s.Add(t0.Add(time.Duration(i)*30*time.Minute), float64(i))
	}
	r := s.Resample(6 * time.Hour)
	if math.Abs(r.Total()-s.Total()) > 1e-9 {
		t.Errorf("resample changed total: %v vs %v", r.Total(), s.Total())
	}
	if r.Len() != 4 {
		t.Errorf("Resample bins = %d, want 4", r.Len())
	}
}

func TestResampleFillsGaps(t *testing.T) {
	s := New("x")
	s.Add(t0, 1)
	s.Add(t0.Add(3*time.Hour), 1)
	r := s.Resample(time.Hour)
	if r.Len() != 4 {
		t.Fatalf("Resample with gaps produced %d bins, want 4", r.Len())
	}
	if r.Values()[1] != 0 || r.Values()[2] != 0 {
		t.Errorf("gap bins not zero: %v", r.Values())
	}
}

func TestResamplePanicsOnBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive bin")
		}
	}()
	hourly(1).Resample(0)
}

func TestScaleNormalize(t *testing.T) {
	s := hourly(2, 4, 8)
	n := s.Normalize(2)
	if got := n.Values(); got[0] != 1 || got[2] != 4 {
		t.Errorf("Normalize = %v", got)
	}
	if got := s.NormalizeByMax().Values(); got[2] != 1 || got[0] != 0.25 {
		t.Errorf("NormalizeByMax = %v", got)
	}
	for _, v := range s.Normalize(0).Values() {
		if !math.IsNaN(v) {
			t.Error("Normalize by zero should yield NaN")
		}
	}
}

func TestDailyTotalsAndWeeklyMeans(t *testing.T) {
	s := New("x")
	for d := 0; d < 14; d++ {
		for h := 0; h < 24; h++ {
			s.Add(t0.AddDate(0, 0, d).Add(time.Duration(h)*time.Hour), 1)
		}
	}
	dt := s.DailyTotals()
	if dt.Len() != 14 {
		t.Fatalf("DailyTotals bins = %d, want 14", dt.Len())
	}
	for _, v := range dt.Values() {
		if v != 24 {
			t.Errorf("daily total = %v, want 24", v)
		}
	}
	wm := s.WeeklyMeans()
	for w, m := range wm {
		if m != 1 {
			t.Errorf("weekly mean for week %d = %v, want 1", w, m)
		}
	}
	if len(wm) < 2 {
		t.Errorf("expected at least 2 weeks, got %d", len(wm))
	}
}

func TestFilterMap(t *testing.T) {
	s := hourly(1, 2, 3, 4)
	even := s.Filter(func(p Point) bool { return int(p.V)%2 == 0 })
	if even.Len() != 2 {
		t.Errorf("Filter kept %d, want 2", even.Len())
	}
}

// Property: resampling preserves the total for arbitrary positive inputs.
func TestResampleTotalQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New("q")
		for i, v := range raw {
			s.Add(t0.Add(time.Duration(i)*17*time.Minute), float64(v))
		}
		r := s.Resample(2 * time.Hour)
		return math.Abs(r.Total()-s.Total()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: NormalizeByMax yields values in [0, 1] for non-negative input
// with a positive maximum.
func TestNormalizeBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := New("q")
		anyPositive := false
		for i, v := range raw {
			if v > 0 {
				anyPositive = true
			}
			s.Add(t0.Add(time.Duration(i)*time.Hour), float64(v))
		}
		if !anyPositive {
			return true
		}
		for _, v := range s.NormalizeByMax().Values() {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkSeriesSlice cuts one day out of 137 days of hours (3 288
// points), as the day-grid analyses do once per day. The range is found by
// binary search and the result is a view, so the one allocation is its
// header; a Slice that scanned or copied the points would show up as more.
func BenchmarkSeriesSlice(b *testing.B) {
	s := New("study window")
	for i := 0; i < 137*24; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	day := t0.AddDate(0, 0, 60)
	b.ReportAllocs()
	for b.Loop() {
		if s.Slice(day, day.AddDate(0, 0, 1)).Len() != 24 {
			b.Fatal("day slice is not 24 hours")
		}
	}
}
