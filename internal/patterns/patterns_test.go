package patterns

import (
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// ispSeries generates the ISP-CE hourly series for [from, to).
func ispSeries(t *testing.T, from, to time.Time) *timeseries.Series {
	t.Helper()
	g, err := synth.NewDefault(synth.ISPCE)
	if err != nil {
		t.Fatal(err)
	}
	return g.TotalSeries(from, to)
}

func trainFebruary(t *testing.T, s *timeseries.Series) *Classifier {
	t.Helper()
	c, err := Train(s, date(2020, 2, 1), date(2020, 3, 1), DefaultBinHours)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainRequiresBothDayTypes(t *testing.T) {
	s := ispSeries(t, date(2020, 2, 1), date(2020, 3, 1))
	// A Monday-Tuesday window has no weekend days.
	if _, err := Train(s, date(2020, 2, 3), date(2020, 2, 5), DefaultBinHours); err == nil {
		t.Error("training without weekend days should fail")
	}
	if _, err := Train(s, date(2020, 2, 1), date(2020, 3, 1), 5); err == nil {
		t.Error("bin size not dividing 24 should be rejected")
	}
}

func TestCentroidsDiffer(t *testing.T) {
	s := ispSeries(t, date(2020, 2, 1), date(2020, 3, 1))
	c := trainFebruary(t, s)
	wd, we := c.workday, c.weekend
	if len(wd) != 4 || len(we) != 4 {
		t.Fatalf("centroid sizes %d/%d, want 4", len(wd), len(we))
	}
	// Weekend mornings (bin 06:00-12:00) carry a larger share than
	// workday mornings.
	if we[1] <= wd[1] {
		t.Errorf("weekend morning share %v should exceed workday morning share %v", we[1], wd[1])
	}
}

func TestFebruaryDaysClassifiedCorrectly(t *testing.T) {
	s := ispSeries(t, date(2020, 2, 1), date(2020, 3, 1))
	c := trainFebruary(t, s)
	results := c.ClassifyRange(s, date(2020, 2, 1), date(2020, 3, 1))
	if len(results) == 0 {
		t.Fatal("no results")
	}
	mismatches := 0
	for _, r := range results {
		if !r.Match {
			mismatches++
		}
	}
	if frac := float64(mismatches) / float64(len(results)); frac > 0.15 {
		t.Errorf("February mismatch rate %.2f too high; the baseline month should classify cleanly", frac)
	}
}

func TestLockdownDaysBecomeWeekendLike(t *testing.T) {
	s := ispSeries(t, date(2020, 2, 1), date(2020, 5, 1))
	c := trainFebruary(t, s)
	results := c.ClassifyRange(s, date(2020, 4, 1), date(2020, 5, 1))
	workdays, weekendLike := 0, 0
	for _, r := range results {
		if r.ActualWeekend {
			continue
		}
		workdays++
		if r.Kind == WeekendLike {
			weekendLike++
		}
	}
	if workdays == 0 {
		t.Fatal("no April workdays classified")
	}
	if frac := float64(weekendLike) / float64(workdays); frac < 0.8 {
		t.Errorf("only %.0f%% of April workdays classified weekend-like; the paper reports almost all", frac*100)
	}
}

func TestClassifyDayErrorsOnMissingData(t *testing.T) {
	s := ispSeries(t, date(2020, 2, 1), date(2020, 2, 10))
	c := trainFebruary(t, ispSeries(t, date(2020, 2, 1), date(2020, 3, 1)))
	if _, err := c.ClassifyDay(s, date(2020, 3, 15)); err == nil {
		t.Error("classifying a day without data should fail")
	}
}

func TestSummarize(t *testing.T) {
	results := []DayResult{
		{Day: date(2020, 3, 23), Kind: WeekendLike, ActualWeekend: false},
		{Day: date(2020, 3, 24), Kind: WeekendLike, ActualWeekend: false},
		{Day: date(2020, 3, 25), Kind: WorkdayLike, ActualWeekend: false},
		{Day: date(2020, 3, 28), Kind: WeekendLike, ActualWeekend: true},
	}
	sums := Summarize(results)
	if len(sums) != 1 {
		t.Fatalf("expected one week, got %d", len(sums))
	}
	s := sums[0]
	if s.Week != calendar.ISOWeek(date(2020, 3, 23)) {
		t.Errorf("week number = %d", s.Week)
	}
	if s.Workdays != 3 || s.WorkdaysWeekendLike != 2 || s.WeekendDays != 1 || s.WeekendWeekendLike != 1 {
		t.Errorf("summary = %+v", s)
	}
}

func TestKindString(t *testing.T) {
	if WorkdayLike.String() != "workday-like" || WeekendLike.String() != "weekend-like" {
		t.Error("Kind strings unexpected")
	}
}

// BenchmarkClassifyRange classifies February to May (90 days) of the ISP-CE
// study-window series at the default bin size, as Figure 2's experiment
// does: one day slice, one bin vector and the result growth per day.
func BenchmarkClassifyRange(b *testing.B) {
	g, err := synth.NewDefault(synth.ISPCE)
	if err != nil {
		b.Fatal(err)
	}
	s := g.TotalSeries(calendar.StudyStart, calendar.StudyEnd)
	c, err := Train(s, date(2020, 2, 1), date(2020, 3, 1), DefaultBinHours)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		c.ClassifyRange(s, date(2020, 2, 1), date(2020, 5, 1))
	}
}
