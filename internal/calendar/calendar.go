// Package calendar captures the 2020 calendar knowledge the analyses of
// "The Lockdown Effect" (IMC 2020) depend on: ISO calendar weeks, weekends, the Central/Southern
// European holidays in the measurement window, the lockdown phases and the
// specific analysis weeks chosen per vantage point.
//
// All times are handled in UTC; the paper's vantage points are aggregated at
// hour granularity where the exact local offset does not change any of the
// reported effects.
package calendar

import (
	"fmt"
	"sort"
	"time"
)

// Phase labels the stages of the lockdown used throughout the paper's
// evaluation (Figures 3, 9, 10, 11).
type Phase int

// Lockdown phases.
const (
	// PhaseBase is the pre-lockdown baseline (February 2020).
	PhaseBase Phase = iota
	// PhaseStage1 is the week immediately after the lockdowns were
	// imposed in Europe and the US (mid/late March 2020).
	PhaseStage1
	// PhaseStage2 is a week well into the lockdown (April 2020).
	PhaseStage2
	// PhaseStage3 is a week after the first relaxations (May 2020).
	PhaseStage3
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseBase:
		return "base"
	case PhaseStage1:
		return "stage1"
	case PhaseStage2:
		return "stage2"
	case PhaseStage3:
		return "stage3"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Key dates of the pandemic timeline used by the generator and the
// experiment index (all UTC midnight).
var (
	// OutbreakEurope is the approximate arrival of the outbreak in
	// Europe (end of January 2020, calendar week 4).
	OutbreakEurope = time.Date(2020, 1, 27, 0, 0, 0, 0, time.UTC)
	// LockdownEurope is the start of the strict lockdowns in Central and
	// Southern Europe (mid March 2020, calendar week 11/12).
	LockdownEurope = time.Date(2020, 3, 14, 0, 0, 0, 0, time.UTC)
	// LockdownUS is the later lockdown on the US East Coast.
	LockdownUS = time.Date(2020, 3, 22, 0, 0, 0, 0, time.UTC)
	// EDUClosure is the closure of the educational system in the EDU
	// network's region (announced Mar 9, effective Mar 11).
	EDUClosure = time.Date(2020, 3, 11, 0, 0, 0, 0, time.UTC)
	// ResolutionReduction is the date major streaming providers reduced
	// video resolution in Europe.
	ResolutionReduction = time.Date(2020, 3, 20, 0, 0, 0, 0, time.UTC)
	// RelaxationEurope is the first partial re-opening (shops) in the
	// ISP-CE/IXP-CE region.
	RelaxationEurope = time.Date(2020, 4, 20, 0, 0, 0, 0, time.UTC)
	// StudyStart and StudyEnd bound the full observation window used in
	// Figure 1: January 1 through May 17, 2020, spanning ISO calendar
	// weeks 1-20 of 2020 (week 20, May 11-17, is the last full week
	// before the exclusive StudyEnd).
	StudyStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2020, 5, 18, 0, 0, 0, 0, time.UTC)
)

// Week is a half-open interval of whole days [Start, End) used to describe
// the paper's selected analysis weeks.
type Week struct {
	Label string
	Phase Phase
	Start time.Time // inclusive, midnight UTC
	End   time.Time // exclusive, midnight UTC
}

// Contains reports whether t falls within the week.
func (w Week) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// Days returns the number of whole days covered by the week.
func (w Week) Days() int {
	return int(w.End.Sub(w.Start).Hours() / 24)
}

// Hours enumerates the start of every hour in the week, in order.
func (w Week) Hours() []time.Time {
	var hs []time.Time
	for t := w.Start; t.Before(w.End); t = t.Add(time.Hour) {
		hs = append(hs, t)
	}
	return hs
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// week builds a Week covering [start, start+days).
func week(label string, p Phase, start time.Time, days int) Week {
	return Week{Label: label, Phase: p, Start: start, End: start.AddDate(0, 0, days)}
}

// ISPWeeks are the four selected weeks of Figure 3a (ISP-CE), Wednesday to
// Wednesday as in the paper (Feb 19-26, Mar 18-25, Apr 22-29, May 10-17).
func ISPWeeks() []Week {
	return []Week{
		week("base", PhaseBase, date(2020, 2, 19), 7),
		week("stage1", PhaseStage1, date(2020, 3, 18), 7),
		week("stage2", PhaseStage2, date(2020, 4, 22), 7),
		week("stage3", PhaseStage3, date(2020, 5, 10), 7),
	}
}

// IXPWeeks are the four selected weeks of Figure 3b (IXP-CE/US/SE).
func IXPWeeks() []Week {
	return []Week{
		week("base", PhaseBase, date(2020, 2, 19), 7),
		week("stage1", PhaseStage1, date(2020, 3, 18), 7),
		week("stage2", PhaseStage2, date(2020, 4, 22), 7),
		week("stage3", PhaseStage3, date(2020, 5, 10), 7),
	}
}

// AppWeeksISP are the three weeks of the port/application analysis at the
// ISP-CE (Sections 4 and 5): Feb 20-26, Mar 19-25, Apr 9-15.
func AppWeeksISP() []Week {
	return []Week{
		week("base", PhaseBase, date(2020, 2, 20), 7),
		week("stage1", PhaseStage1, date(2020, 3, 19), 7),
		week("stage2", PhaseStage2, date(2020, 4, 9), 7),
	}
}

// AppWeeksIXP are the three weeks of the port/application analysis at the
// IXPs (Sections 4 and 5): Feb 20-26, Mar 12-18, Apr 23-29.
func AppWeeksIXP() []Week {
	return []Week{
		week("base", PhaseBase, date(2020, 2, 20), 7),
		week("stage1", PhaseStage1, date(2020, 3, 12), 7),
		week("stage2", PhaseStage2, date(2020, 4, 23), 7),
	}
}

// EDUWeeks are the three key weeks of the educational-network analysis
// (Section 7): baseline Feb 27-Mar 4, transition Mar 12-18, online
// lecturing Apr 16-22.
func EDUWeeks() []Week {
	return []Week{
		week("base", PhaseBase, date(2020, 2, 27), 7),
		week("transition", PhaseStage1, date(2020, 3, 12), 7),
		week("online-lecturing", PhaseStage2, date(2020, 4, 16), 7),
	}
}

// IsHoliday reports whether day is one of the regional public holidays in
// the study window: the Easter break the paper treats as weekend-like
// (Good Friday through Easter Monday, April 10-13), New Year's Day and
// Epiphany (a public holiday in parts of the region). The check compares
// date components directly — it sits inside the generator's volume model
// and the per-hour experiment filters, where a formatted-string lookup
// would allocate on every call.
func IsHoliday(day time.Time) bool {
	y, m, d := day.UTC().Date()
	if y != 2020 {
		return false
	}
	switch m {
	case time.April:
		return d >= 10 && d <= 13
	case time.January:
		return d == 1 || d == 6
	}
	return false
}

// HolidaySet is an immutable set of extra holiday dates a scenario
// declares on top of the built-in regional holidays (IsHoliday). The
// synthetic generator consults it wherever it asks "is this a
// weekend-like day"; a nil *HolidaySet is the empty set, so the default
// model pays no cost for the feature. Build one with NewHolidaySet and
// never mutate it afterwards — generators share it across goroutines.
type HolidaySet struct {
	days map[int64]struct{}
}

// NewHolidaySet builds a HolidaySet from the given days (each truncated
// to its UTC date). An empty input returns nil, the canonical empty set.
func NewHolidaySet(days []time.Time) *HolidaySet {
	if len(days) == 0 {
		return nil
	}
	s := &HolidaySet{days: make(map[int64]struct{}, len(days))}
	for _, d := range days {
		s.days[DayStart(d).Unix()] = struct{}{}
	}
	return s
}

// Contains reports whether t's UTC date is in the set. It is nil-safe:
// a nil set contains nothing.
func (s *HolidaySet) Contains(t time.Time) bool {
	if s == nil {
		return false
	}
	_, ok := s.days[DayStart(t).Unix()]
	return ok
}

// Days returns the dates in the set in ascending order (nil for the
// empty set).
func (s *HolidaySet) Days() []time.Time {
	if s == nil {
		return nil
	}
	out := make([]time.Time, 0, len(s.days))
	for u := range s.days {
		out = append(out, time.Unix(u, 0).UTC())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// IsWeekend reports whether day is a Saturday or Sunday.
func IsWeekend(day time.Time) bool {
	wd := day.UTC().Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// IsWorkday reports whether day is a Monday-Friday that is not a holiday.
// The paper categorises the Easter holidays as weekend days.
func IsWorkday(day time.Time) bool {
	return !IsWeekend(day) && !IsHoliday(day)
}

// ISOWeek returns the ISO 8601 calendar week of t (the year is dropped; the
// study window lies entirely within 2020).
func ISOWeek(t time.Time) int {
	_, w := t.UTC().ISOWeek()
	return w
}

// WeekStart returns the Monday 00:00 UTC of the ISO week containing t.
func WeekStart(t time.Time) time.Time {
	t = t.UTC()
	day := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	wd := int(day.Weekday())
	if wd == 0 { // Sunday
		wd = 7
	}
	return day.AddDate(0, 0, -(wd - 1))
}

// DayStart truncates t to midnight UTC.
func DayStart(t time.Time) time.Time {
	t = t.UTC()
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}

// Days enumerates midnights of every day in [from, to).
func Days(from, to time.Time) []time.Time {
	var ds []time.Time
	for d := DayStart(from); d.Before(to); d = d.AddDate(0, 0, 1) {
		ds = append(ds, d)
	}
	return ds
}

// WorkStart and WorkEnd bound the paper's "working hours" window as hours
// of the day: [WorkStart, WorkEnd), 09:00-16:59.
const (
	WorkStart = 9
	WorkEnd   = 17
)

// WorkingHours reports whether the hour-of-day h (0-23) falls into the
// paper's "working hours" window (09:00-16:59).
func WorkingHours(h int) bool { return h >= WorkStart && h < WorkEnd }

// EveningHours reports whether the hour-of-day h falls into the paper's
// evening window (17:00-24:00).
func EveningHours(h int) bool { return h >= 17 && h <= 23 }
