package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

// TestSharedSeriesViews: every Dataset.Series call inside the study window
// returns a view of one memoized series per vantage point. Many goroutines
// cut day slices of the same vantage points, read the whole window's
// points and append to their own views, in and out of time order; every
// view must equal a serial run — each day generated on its own, and each
// appended view sorted on its own — and nothing a goroutine appends may
// reach the shared series or another goroutine's view.
func TestSharedSeriesViews(t *testing.T) {
	vps := []synth.VantagePoint{synth.ISPCE, synth.EDU}
	days := calendar.Days(calendar.StudyStart, calendar.StudyEnd)
	want := make(map[synth.VantagePoint][][]timeseries.Point)
	window := make(map[synth.VantagePoint]int)
	for _, vp := range vps {
		g, err := synth.NewDefault(vp)
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range days {
			want[vp] = append(want[vp], g.TotalSeries(day, day.AddDate(0, 0, 1)).Points())
		}
		window[vp] = g.TotalSeries(calendar.StudyStart, calendar.StudyEnd).Len()
	}

	d := NewDataset(Options{FlowScale: 0.1})
	defer d.Close()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range days {
				i := (k + w*len(days)/workers) % len(days) // each worker starts on another day
				day := days[i]
				vp := vps[(w+k)%len(vps)]
				view, err := d.Series(vp, day, day.AddDate(0, 0, 1))
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(view.Points(), want[vp][i]) {
					t.Errorf("worker %d: %s %s differs from the serial run", w, vp, day.Format("2006-01-02"))
					return
				}
				whole, err := d.Series(vp, calendar.StudyStart, calendar.StudyEnd)
				if err != nil {
					t.Error(err)
					return
				}
				if pts := whole.Points(); len(pts) != window[vp] || !slices.Equal(pts[i*24:i*24+24], want[vp][i]) {
					t.Errorf("worker %d: the study window of %s changed under %s", w, vp, day.Format("2006-01-02"))
					return
				}
				// Append after the day's last hour and before its first:
				// the view reallocates and sorts its own copy.
				after := timeseries.Point{T: day.Add(24 * time.Hour), V: float64(-w)}
				before := timeseries.Point{T: day.Add(-time.Hour), V: float64(-w)}
				view.AddPoint(after)
				view.AddPoint(before)
				grown := append(append([]timeseries.Point{before}, want[vp][i]...), after)
				if !slices.Equal(view.Points(), grown) {
					t.Errorf("worker %d: %s %s after two appends differs from the serial run", w, vp, day.Format("2006-01-02"))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for _, vp := range vps {
		for i, day := range days {
			view, err := d.Series(vp, day, day.AddDate(0, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(view.Points(), want[vp][i]) {
				t.Fatalf("after the workers: %s %s differs from the serial run", vp, day.Format("2006-01-02"))
			}
		}
	}
}
