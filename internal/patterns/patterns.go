// Package patterns implements the workday-vs-weekend traffic pattern
// classification of Figure 2 of "The Lockdown Effect" (IMC 2020): a day whose traffic concentrates in the
// evening is "workday-like", a day whose activity already gains momentum
// at 09:00-10:00 is "weekend-like". The classifier is trained on February
// baseline data aggregated into 6-hour bins, exactly as described in
// Section 1, and then applied to every day of the study window.
package patterns

import (
	"fmt"
	"math"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/timeseries"
)

// Kind is the predicted pattern of a day.
type Kind int

// Day kinds.
const (
	WorkdayLike Kind = iota
	WeekendLike
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == WeekendLike {
		return "weekend-like"
	}
	return "workday-like"
}

// DefaultBinHours is the aggregation level the paper uses (6 hours).
const DefaultBinHours = 6

// Classifier assigns days to workday-like or weekend-like patterns by
// nearest-centroid matching of their normalised bin vectors.
type Classifier struct {
	binHours int
	workday  []float64
	weekend  []float64
}

// dayVector aggregates one day of hourly volumes into bins of binHours and
// normalises the vector to sum 1 (the shape, independent of volume).
func dayVector(hourly *timeseries.Series, day time.Time, binHours int) ([]float64, error) {
	day = calendar.DayStart(day)
	sub := hourly.Slice(day, day.AddDate(0, 0, 1))
	if sub.Len() < 24 {
		return nil, fmt.Errorf("patterns: day %s has only %d hourly samples", day.Format("2006-01-02"), sub.Len())
	}
	bins := 24 / binHours
	vec := make([]float64, bins)
	for _, p := range sub.Points() {
		vec[p.T.UTC().Hour()/binHours] += p.V
	}
	var total float64
	for _, v := range vec {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("patterns: day %s has zero volume", day.Format("2006-01-02"))
	}
	for i := range vec {
		vec[i] /= total
	}
	return vec, nil
}

// Train builds a classifier from the hourly series using the days in
// [baselineFrom, baselineTo) as the February baseline. Days are grouped by
// their actual type (workday vs weekend/holiday) and averaged into the two
// centroids. binHours must divide 24; pass DefaultBinHours for the paper's
// setting.
func Train(hourly *timeseries.Series, baselineFrom, baselineTo time.Time, binHours int) (*Classifier, error) {
	if binHours <= 0 || 24%binHours != 0 {
		return nil, fmt.Errorf("patterns: bin size %d does not divide 24", binHours)
	}
	bins := 24 / binHours
	wd := make([]float64, bins)
	we := make([]float64, bins)
	var nwd, nwe int
	for _, day := range calendar.Days(baselineFrom, baselineTo) {
		vec, err := dayVector(hourly, day, binHours)
		if err != nil {
			continue
		}
		if calendar.IsWorkday(day) {
			for i := range vec {
				wd[i] += vec[i]
			}
			nwd++
		} else {
			for i := range vec {
				we[i] += vec[i]
			}
			nwe++
		}
	}
	if nwd == 0 || nwe == 0 {
		return nil, fmt.Errorf("patterns: baseline needs both workdays (%d) and weekend days (%d)", nwd, nwe)
	}
	for i := range wd {
		wd[i] /= float64(nwd)
		we[i] /= float64(nwe)
	}
	return &Classifier{binHours: binHours, workday: wd, weekend: we}, nil
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// ClassifyDay predicts the pattern of one day from the hourly series.
func (c *Classifier) ClassifyDay(hourly *timeseries.Series, day time.Time) (Kind, error) {
	vec, err := dayVector(hourly, day, c.binHours)
	if err != nil {
		return WorkdayLike, err
	}
	if dist(vec, c.weekend) < dist(vec, c.workday) {
		return WeekendLike, nil
	}
	return WorkdayLike, nil
}

// DayResult is the classification of one day together with its actual
// calendar type; Match reports whether prediction and calendar agree (the
// blue vs orange colouring of Figures 2b/2c).
type DayResult struct {
	Day           time.Time
	Kind          Kind
	ActualWeekend bool
	Match         bool
}

// ClassifyRange classifies every day in [from, to). Days with incomplete
// data are skipped.
func (c *Classifier) ClassifyRange(hourly *timeseries.Series, from, to time.Time) []DayResult {
	var out []DayResult
	for _, day := range calendar.Days(from, to) {
		kind, err := c.ClassifyDay(hourly, day)
		if err != nil {
			continue
		}
		actualWeekend := !calendar.IsWorkday(day)
		match := (kind == WeekendLike) == actualWeekend
		out = append(out, DayResult{Day: day, Kind: kind, ActualWeekend: actualWeekend, Match: match})
	}
	return out
}

// Summary aggregates classification results per ISO week: how many
// workdays of the week were classified weekend-like (the headline metric
// of Figure 2: "from mid March onward almost all days are classified as
// weekend-like").
type Summary struct {
	Week                int
	Workdays            int
	WorkdaysWeekendLike int
	WeekendDays         int
	WeekendWeekendLike  int
}

// Summarize groups day results by ISO calendar week.
func Summarize(results []DayResult) []Summary {
	byWeek := make(map[int]*Summary)
	var order []int
	for _, r := range results {
		w := calendar.ISOWeek(r.Day)
		s, ok := byWeek[w]
		if !ok {
			s = &Summary{Week: w}
			byWeek[w] = s
			order = append(order, w)
		}
		if r.ActualWeekend {
			s.WeekendDays++
			if r.Kind == WeekendLike {
				s.WeekendWeekendLike++
			}
		} else {
			s.Workdays++
			if r.Kind == WeekendLike {
				s.WorkdaysWeekendLike++
			}
		}
	}
	out := make([]Summary, 0, len(order))
	for _, w := range order {
		out = append(out, *byWeek[w])
	}
	return out
}
