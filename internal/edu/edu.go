// Package edu implements the educational-network analysis of Section 7
// of "The Lockdown Effect" (IMC 2020):
// weekly volume profiles (Figure 11a), ingress/egress ratios (Figure 11b)
// and per-class daily connection growth (Figure 12). The functions operate
// on time series and per-day connection counts; the experiments in package
// core produce those inputs from the synthetic EDU vantage point.
package edu

import (
	"fmt"
	"sort"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/stats"
	"lockdown/internal/timeseries"
)

// DayValue is one day of a weekly profile.
type DayValue struct {
	Day   time.Time
	Value float64
}

// WeekProfile is the per-day series of one analysis week (Figure 11 plots
// Thursday through Wednesday for three weeks).
type WeekProfile struct {
	Label string
	Days  []DayValue
}

// VolumeByWeek computes the normalised daily volume profile of each
// analysis week from an hourly total-volume series. Values are normalised
// by the smallest daily volume across all weeks, matching the "normalized
// traffic volume" axis of Figure 11a.
func VolumeByWeek(hourly *timeseries.Series, weeks []calendar.Week) ([]WeekProfile, error) {
	daily := hourly.DailyTotals()
	var profiles []WeekProfile
	min := 0.0
	first := true
	for _, w := range weeks {
		p := WeekProfile{Label: w.Label}
		for _, day := range calendar.Days(w.Start, w.End) {
			v := daily.Slice(day, day.AddDate(0, 0, 1)).Total()
			if v == 0 {
				return nil, fmt.Errorf("edu: no data for %s in week %q", day.Format("2006-01-02"), w.Label)
			}
			p.Days = append(p.Days, DayValue{Day: day, Value: v})
			if first || v < min {
				min = v
				first = false
			}
		}
		profiles = append(profiles, p)
	}
	if min == 0 {
		return nil, fmt.Errorf("edu: zero minimum daily volume")
	}
	for i := range profiles {
		for j := range profiles[i].Days {
			profiles[i].Days[j].Value /= min
		}
	}
	return profiles, nil
}

// InOutRatio computes the per-day ingress/egress volume ratio of each
// analysis week (Figure 11b).
func InOutRatio(ingress, egress *timeseries.Series, weeks []calendar.Week) ([]WeekProfile, error) {
	inDaily := ingress.DailyTotals()
	outDaily := egress.DailyTotals()
	var profiles []WeekProfile
	for _, w := range weeks {
		p := WeekProfile{Label: w.Label}
		for _, day := range calendar.Days(w.Start, w.End) {
			in := inDaily.Slice(day, day.AddDate(0, 0, 1)).Total()
			out := outDaily.Slice(day, day.AddDate(0, 0, 1)).Total()
			if out == 0 {
				return nil, fmt.Errorf("edu: zero egress volume on %s", day.Format("2006-01-02"))
			}
			p.Days = append(p.Days, DayValue{Day: day, Value: in / out})
		}
		profiles = append(profiles, p)
	}
	return profiles, nil
}

// WorkdayDrop returns the relative change of the mean workday volume
// between two week profiles (e.g. -0.55 for the paper's 55% drop).
func WorkdayDrop(base, stage WeekProfile) float64 {
	mean := func(p WeekProfile) float64 {
		var sum float64
		var n int
		for _, d := range p.Days {
			if calendar.IsWorkday(d.Day) {
				sum += d.Value
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	b, s := mean(base), mean(stage)
	if b == 0 {
		return 0
	}
	return s/b - 1
}

// Category is one traffic category of the connection-level analysis
// (Figure 12): an Appendix B class restricted to one direction.
type Category struct {
	Name  string
	Class appclass.EDUClass
	Dir   flowrec.Direction
}

// DefaultCategories returns the categories plotted in Figure 12.
func DefaultCategories() []Category {
	return []Category{
		{Name: "Eyeball ISPs (Email, In)", Class: appclass.EDUEmail, Dir: flowrec.DirIngress},
		{Name: "Eyeball ISPs (VPN, In)", Class: appclass.EDUVPN, Dir: flowrec.DirIngress},
		{Name: "Eyeball ISPs (Web, In)", Class: appclass.EDUWeb, Dir: flowrec.DirIngress},
		{Name: "Hypergiants (Web, Out)", Class: appclass.EDUWeb, Dir: flowrec.DirEgress},
		{Name: "Push notifications (Out)", Class: appclass.EDUPush, Dir: flowrec.DirEgress},
		{Name: "QUIC (Out)", Class: appclass.EDUQUIC, Dir: flowrec.DirEgress},
	}
}

// ExtraCategories returns the remote-access categories Section 7 quotes
// median growth factors for (remote desktop, SSH, Spotify).
func ExtraCategories() []Category {
	return []Category{
		{Name: "Remote desktop (In)", Class: appclass.EDURemoteDesktop, Dir: flowrec.DirIngress},
		{Name: "SSH (In)", Class: appclass.EDUSSH, Dir: flowrec.DirIngress},
		{Name: "Spotify (Out)", Class: appclass.EDUSpotify, Dir: flowrec.DirEgress},
	}
}

// DailyCounts are connection counts per day, class and direction.
type DailyCounts map[time.Time]map[appclass.EDUClass]map[flowrec.Direction]int

// CountConnections builds DailyCounts from per-day flow batches (the
// native input of the Figure 12 pipeline: one columnar batch per day).
func CountConnections(byDay map[time.Time]*flowrec.Batch) DailyCounts {
	out := make(DailyCounts, len(byDay))
	for day, b := range byDay {
		out[calendar.DayStart(day)] = appclass.CountEDUByClassDirBatch(b)
	}
	return out
}

// Merge adds every count of src into dc and returns dc: per-day counts of
// parts of the flows sum to the counts of the whole, in any order and at
// any grouping, because they are integers. It takes over src's inner
// maps, so src must not be used afterwards.
func (dc DailyCounts) Merge(src DailyCounts) DailyCounts {
	for day, byClass := range src {
		dst := dc[day]
		if dst == nil {
			dc[day] = byClass
			continue
		}
		for cls, byDir := range byClass {
			if dst[cls] == nil {
				dst[cls] = byDir
				continue
			}
			for dir, n := range byDir {
				dst[cls][dir] += n
			}
		}
	}
	return dc
}

// Days returns the sorted days present in the counts.
func (dc DailyCounts) Days() []time.Time {
	out := make([]time.Time, 0, len(dc))
	for d := range dc {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// count returns the connections of one category on one day.
func (dc DailyCounts) count(day time.Time, cat Category) int {
	if m, ok := dc[calendar.DayStart(day)]; ok {
		return m[cat.Class][cat.Dir]
	}
	return 0
}

// Growth is the Figure 12 dataset: per category, the daily connection
// count relative to the baseline day.
type Growth struct {
	Baseline time.Time
	Series   map[string]*timeseries.Series
}

// ConnectionGrowth computes daily relative growth (count / baseline count)
// for the given categories. Categories with no baseline connections are
// skipped.
func ConnectionGrowth(counts DailyCounts, baseline time.Time, cats []Category) Growth {
	g := Growth{Baseline: calendar.DayStart(baseline), Series: make(map[string]*timeseries.Series)}
	for _, cat := range cats {
		base := counts.count(baseline, cat)
		if base == 0 {
			continue
		}
		s := timeseries.New(cat.Name)
		for _, day := range counts.Days() {
			s.Add(day, float64(counts.count(day, cat))/float64(base))
		}
		g.Series[cat.Name] = s
	}
	return g
}

// MedianGrowthAfter returns the median relative growth of one category
// over the days at or after from (the paper quotes medians after the state
// of emergency).
func (g Growth) MedianGrowthAfter(name string, from time.Time) float64 {
	s, ok := g.Series[name]
	if !ok {
		return 0
	}
	var vals []float64
	for _, p := range s.Points() {
		if !p.T.Before(from) {
			vals = append(vals, p.V)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return stats.Quantile(vals, 0.5)
}
