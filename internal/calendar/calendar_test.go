package calendar

import (
	"testing"
	"time"
)

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseBase: "base", PhaseStage1: "stage1", PhaseStage2: "stage2", PhaseStage3: "stage3", Phase(9): "phase(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestWeekContainsAndDays(t *testing.T) {
	w := ISPWeeks()[0]
	if w.Days() != 7 {
		t.Errorf("base week days = %d, want 7", w.Days())
	}
	if !w.Contains(w.Start) {
		t.Error("week should contain its start")
	}
	if w.Contains(w.End) {
		t.Error("week should not contain its (exclusive) end")
	}
	if w.Contains(w.Start.Add(-time.Hour)) {
		t.Error("week should not contain times before start")
	}
	if got := len(w.Hours()); got != 7*24 {
		t.Errorf("Hours() returned %d entries, want 168", got)
	}
}

func TestSelectedWeeksMatchPaper(t *testing.T) {
	isp := ISPWeeks()
	if isp[0].Start != date(2020, 2, 19) || isp[1].Start != date(2020, 3, 18) ||
		isp[2].Start != date(2020, 4, 22) || isp[3].Start != date(2020, 5, 10) {
		t.Errorf("ISP weeks do not match Figure 3a: %+v", isp)
	}
	edu := EDUWeeks()
	if edu[0].Start != date(2020, 2, 27) || edu[1].Start != date(2020, 3, 12) || edu[2].Start != date(2020, 4, 16) {
		t.Errorf("EDU weeks do not match Section 7: %+v", edu)
	}
	appISP := AppWeeksISP()
	if appISP[1].Start != date(2020, 3, 19) {
		t.Errorf("ISP app stage1 week = %v, want Mar 19", appISP[1].Start)
	}
	appIXP := AppWeeksIXP()
	if appIXP[2].Start != date(2020, 4, 23) {
		t.Errorf("IXP app stage2 week = %v, want Apr 23", appIXP[2].Start)
	}
	for _, ws := range [][]Week{isp, IXPWeeks(), edu, appISP, appIXP} {
		for _, w := range ws {
			if w.Days() != 7 {
				t.Errorf("week %q has %d days, want 7", w.Label, w.Days())
			}
		}
	}
}

func TestHolidaysAndWeekends(t *testing.T) {
	goodFriday := date(2020, 4, 10)
	if !IsHoliday(goodFriday) {
		t.Error("Good Friday 2020 should be a holiday")
	}
	if IsWorkday(goodFriday) {
		t.Error("Good Friday 2020 should not be a workday")
	}
	sat := date(2020, 2, 22)
	if !IsWeekend(sat) || IsWorkday(sat) {
		t.Error("Saturday Feb 22 2020 misclassified")
	}
	wed := date(2020, 3, 25)
	if IsWeekend(wed) || IsHoliday(wed) || !IsWorkday(wed) {
		t.Error("Wednesday Mar 25 2020 misclassified")
	}
	if !IsHoliday(date(2020, 1, 1)) {
		t.Error("New Year's Day should be a holiday")
	}
}

func TestISOWeek(t *testing.T) {
	// Jan 15, 2020 was a Wednesday in ISO week 3 (the paper's
	// normalisation baseline for Figure 1).
	if got := ISOWeek(date(2020, 1, 15)); got != 3 {
		t.Errorf("ISO week of Jan 15 = %d, want 3", got)
	}
	if got := ISOWeek(date(2020, 3, 25)); got != 13 {
		t.Errorf("ISO week of Mar 25 = %d, want 13", got)
	}
}

func TestWeekStart(t *testing.T) {
	// Mar 25, 2020 is a Wednesday; its ISO week starts Monday Mar 23.
	if got := WeekStart(date(2020, 3, 25)); got != date(2020, 3, 23) {
		t.Errorf("WeekStart = %v, want 2020-03-23", got)
	}
	// Sunday belongs to the week starting the previous Monday.
	if got := WeekStart(date(2020, 3, 22)); got != date(2020, 3, 16) {
		t.Errorf("WeekStart of Sunday = %v, want 2020-03-16", got)
	}
	// A Monday is its own week start.
	if got := WeekStart(date(2020, 3, 23).Add(5 * time.Hour)); got != date(2020, 3, 23) {
		t.Errorf("WeekStart of Monday = %v, want 2020-03-23", got)
	}
}

func TestDayStartAndDays(t *testing.T) {
	ts := time.Date(2020, 3, 25, 17, 45, 12, 0, time.UTC)
	if DayStart(ts) != date(2020, 3, 25) {
		t.Errorf("DayStart = %v", DayStart(ts))
	}
	ds := Days(date(2020, 3, 1), date(2020, 3, 8))
	if len(ds) != 7 {
		t.Fatalf("Days returned %d entries, want 7", len(ds))
	}
	if ds[0] != date(2020, 3, 1) || ds[6] != date(2020, 3, 7) {
		t.Errorf("Days boundaries wrong: %v ... %v", ds[0], ds[6])
	}
}

// TestStudyWindowWeekBoundaries pins the ISO-week boundary behaviour of
// the study window, end to end across WeekStart and ISOWeek. The subtle
// cases: 2020 began on a Wednesday, so week 1's Monday is December 30,
// 2019 (before StudyStart: ISO-8601 behaviour, not an off-by-one), and the
// exclusive StudyEnd (May 18) is itself the Monday of week 21, so week 20
// (May 11-17) is the last week in the window.
func TestStudyWindowWeekBoundaries(t *testing.T) {
	cases := []struct {
		name      string
		day       time.Time
		isoWeek   int
		weekStart time.Time
	}{
		{"week-1 Monday precedes StudyStart", time.Date(2019, 12, 30, 0, 0, 0, 0, time.UTC), 1, time.Date(2019, 12, 30, 0, 0, 0, 0, time.UTC)},
		{"StudyStart (Wed Jan 1) is in week 1", StudyStart, 1, time.Date(2019, 12, 30, 0, 0, 0, 0, time.UTC)},
		{"first Sunday closes week 1", date(2020, 1, 5), 1, time.Date(2019, 12, 30, 0, 0, 0, 0, time.UTC)},
		{"first full week is week 2", date(2020, 1, 6), 2, date(2020, 1, 6)},
		{"last day of the window is in week 20", date(2020, 5, 17), 20, date(2020, 5, 11)},
		{"StudyEnd (exclusive) opens week 21", StudyEnd, 21, date(2020, 5, 18)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ISOWeek(c.day); got != c.isoWeek {
				t.Errorf("ISOWeek(%v) = %d, want %d", c.day, got, c.isoWeek)
			}
			if got := WeekStart(c.day); got != c.weekStart {
				t.Errorf("WeekStart(%v) = %v, want %v", c.day, got, c.weekStart)
			}
		})
	}

	// The Monday of every ISO week the window touches, keyed by week.
	sw := make(map[int]time.Time)
	for d := WeekStart(StudyStart); d.Before(StudyEnd); d = d.AddDate(0, 0, 7) {
		sw[ISOWeek(d)] = d
	}
	if len(sw) != 20 {
		t.Fatalf("the window touches %d weeks, want 20 (weeks 1-20 of 2020)", len(sw))
	}
	for wk := 1; wk <= 20; wk++ {
		start, ok := sw[wk]
		if !ok {
			t.Fatalf("the window misses week %d", wk)
		}
		if start.Weekday() != time.Monday {
			t.Errorf("week %d starts on %v, want Monday", wk, start.Weekday())
		}
		if got := ISOWeek(start); got != wk {
			t.Errorf("week %d start maps back to ISO week %d", wk, got)
		}
	}
	if want := time.Date(2019, 12, 30, 0, 0, 0, 0, time.UTC); sw[1] != want {
		t.Errorf("week 1 starts %v, want %v (the documented pre-StudyStart Monday)", sw[1], want)
	}
	if _, ok := sw[21]; ok {
		t.Errorf("the window includes week 21; StudyEnd is exclusive")
	}
	if want := date(2020, 5, 11); sw[20] != want {
		t.Errorf("week 20 starts %v, want %v", sw[20], want)
	}
}

func TestHolidaySet(t *testing.T) {
	if NewHolidaySet(nil) != nil {
		t.Error("empty HolidaySet should be nil")
	}
	var nilSet *HolidaySet
	if nilSet.Contains(date(2020, 5, 1)) {
		t.Error("nil HolidaySet contains a day")
	}
	if nilSet.Days() != nil {
		t.Error("nil HolidaySet lists days")
	}
	s := NewHolidaySet([]time.Time{
		time.Date(2020, 5, 1, 13, 30, 0, 0, time.UTC), // truncated to the date
		date(2020, 5, 21),
	})
	if !s.Contains(date(2020, 5, 1)) || !s.Contains(time.Date(2020, 5, 1, 23, 0, 0, 0, time.UTC)) {
		t.Error("HolidaySet misses a declared day")
	}
	if s.Contains(date(2020, 5, 2)) {
		t.Error("HolidaySet contains an undeclared day")
	}
	days := s.Days()
	if len(days) != 2 || days[0] != date(2020, 5, 1) || days[1] != date(2020, 5, 21) {
		t.Errorf("Days() = %v, want the two declared dates ascending", days)
	}
}

func TestHourWindows(t *testing.T) {
	if !WorkingHours(9) || !WorkingHours(16) || WorkingHours(17) || WorkingHours(8) {
		t.Error("WorkingHours window wrong")
	}
	if !EveningHours(17) || !EveningHours(23) || EveningHours(16) {
		t.Error("EveningHours window wrong")
	}
}

func TestLockdownOrdering(t *testing.T) {
	if !OutbreakEurope.Before(LockdownEurope) {
		t.Error("outbreak should precede lockdown")
	}
	if !LockdownEurope.Before(LockdownUS) {
		t.Error("European lockdown should precede the US lockdown")
	}
	if !EDUClosure.Before(LockdownUS) {
		t.Error("EDU closure should precede the US lockdown")
	}
	if !ResolutionReduction.After(LockdownEurope) {
		t.Error("resolution reduction happened after the European lockdown")
	}
}
