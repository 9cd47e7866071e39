package edu

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func eduGenerator(t *testing.T) *synth.Generator {
	t.Helper()
	cfg := synth.DefaultConfig(synth.EDU)
	cfg.FlowScale = 0.5
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVolumeByWeekShapes(t *testing.T) {
	g := eduGenerator(t)
	weeks := calendar.EDUWeeks()
	hourly := g.TotalSeries(date(2020, 2, 27), date(2020, 4, 23))
	profiles, err := VolumeByWeek(hourly, weeks)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 {
		t.Fatalf("expected 3 week profiles, got %d", len(profiles))
	}
	for _, p := range profiles {
		if len(p.Days) != 7 {
			t.Fatalf("week %q has %d days", p.Label, len(p.Days))
		}
		for _, d := range p.Days {
			if d.Value < 1-1e-9 {
				t.Errorf("normalised volume %v below 1 on %v", d.Value, d.Day)
			}
		}
	}
	// Workday volume collapses between the base week and the
	// online-lecturing week (paper: up to -55%).
	drop := WorkdayDrop(profiles[0], profiles[2])
	if drop > -0.35 || drop < -0.75 {
		t.Errorf("workday volume change = %.2f, want a 35-75%% drop", drop)
	}
}

func TestVolumeByWeekMissingData(t *testing.T) {
	g := eduGenerator(t)
	hourly := g.TotalSeries(date(2020, 2, 27), date(2020, 3, 2))
	if _, err := VolumeByWeek(hourly, calendar.EDUWeeks()); err == nil {
		t.Error("missing days should be an error")
	}
}

func TestInOutRatioCollapses(t *testing.T) {
	g := eduGenerator(t)
	weeks := calendar.EDUWeeks()
	in, out := g.DirectionSeries(date(2020, 2, 27), date(2020, 4, 23))
	profiles, err := InOutRatio(in, out, weeks)
	if err != nil {
		t.Fatal(err)
	}
	meanWorkdayRatio := func(p WeekProfile) float64 {
		var sum float64
		var n int
		for _, d := range p.Days {
			if calendar.IsWorkday(d.Day) {
				sum += d.Value
				n++
			}
		}
		return sum / float64(n)
	}
	base := meanWorkdayRatio(profiles[0])
	online := meanWorkdayRatio(profiles[2])
	if base < 5 {
		t.Errorf("pre-closure in/out ratio = %.1f, want strongly ingress-dominated", base)
	}
	if online > base/2.5 {
		t.Errorf("online-lecturing ratio %.1f should be far below the base ratio %.1f", online, base)
	}
}

func TestInOutRatioZeroEgress(t *testing.T) {
	in := timeseries.New("in")
	out := timeseries.New("out")
	w := calendar.EDUWeeks()[:1]
	for _, day := range calendar.Days(w[0].Start, w[0].End) {
		for h := 0; h < 24; h++ {
			in.Add(day.Add(time.Duration(h)*time.Hour), 10)
			out.Add(day.Add(time.Duration(h)*time.Hour), 0)
		}
	}
	if _, err := InOutRatio(in, out, w); err == nil {
		t.Error("zero egress volume should be an error")
	}
}

// collectEDUDays samples flow batches for a set of representative days.
func collectEDUDays(g *synth.Generator, days []time.Time) map[time.Time]*flowrec.Batch {
	out := make(map[time.Time]*flowrec.Batch, len(days))
	for _, d := range days {
		out[d] = g.FlowsBetweenBatch(d, d.AddDate(0, 0, 1))
	}
	return out
}

func TestConnectionGrowthMatchesSection7(t *testing.T) {
	g := eduGenerator(t)
	days := []time.Time{
		date(2020, 2, 27), // baseline Thursday
		date(2020, 3, 5),
		date(2020, 4, 16),
		date(2020, 4, 21),
	}
	counts := CountConnections(collectEDUDays(g, days))
	growth := ConnectionGrowth(counts, days[0], append(DefaultCategories(), ExtraCategories()...))

	after := date(2020, 4, 1)
	vpn := growth.MedianGrowthAfter("Eyeball ISPs (VPN, In)", after)
	ssh := growth.MedianGrowthAfter("SSH (In)", after)
	webIn := growth.MedianGrowthAfter("Eyeball ISPs (Web, In)", after)
	webOut := growth.MedianGrowthAfter("Hypergiants (Web, Out)", after)
	push := growth.MedianGrowthAfter("Push notifications (Out)", after)

	if vpn < 2.5 {
		t.Errorf("VPN incoming connection growth = %.2fx, want > 2.5x (paper: 4.8x)", vpn)
	}
	if ssh < vpn {
		t.Errorf("SSH growth %.2fx should exceed VPN growth %.2fx (paper: 9.1x vs 4.8x)", ssh, vpn)
	}
	if webIn < 1.3 {
		t.Errorf("incoming web connection growth = %.2fx, want > 1.3x (paper: +77%%)", webIn)
	}
	if webOut > 0.8 {
		t.Errorf("outgoing web connection growth = %.2fx, want a drop below 0.8x", webOut)
	}
	if push > 0.7 {
		t.Errorf("outgoing push connection growth = %.2fx, want a collapse (paper: -65%%)", push)
	}
}

// TestCountConnectionsBatchRecordEquivalence pins CountConnections to
// the per-row reference on real generator output, the reference reading
// a batch rebuilt from the day's records.
func TestCountConnectionsBatchRecordEquivalence(t *testing.T) {
	g := eduGenerator(t)
	day := date(2020, 3, 5)
	b := g.FlowsBetweenBatch(day, day.AddDate(0, 0, 1))
	if b.Len() == 0 {
		t.Fatal("expected flows for the sample day")
	}
	fromBatch := CountConnections(map[time.Time]*flowrec.Batch{day: b})
	fromRecs := countConnectionsRef(map[time.Time]*flowrec.Batch{day: flowrec.FromRecords(b.Records())})
	if !reflect.DeepEqual(fromBatch, fromRecs) {
		t.Error("CountConnections and the per-row reference disagree")
	}
}

func TestConnectionGrowthSkipsEmptyBaseline(t *testing.T) {
	counts := DailyCounts{
		calendar.DayStart(date(2020, 2, 27)): {},
	}
	g := ConnectionGrowth(counts, date(2020, 2, 27), DefaultCategories())
	if len(g.Series) != 0 {
		t.Errorf("categories without baseline connections should be skipped, got %d", len(g.Series))
	}
	if g.MedianGrowthAfter("nonexistent", date(2020, 3, 1)) != 0 {
		t.Error("unknown category should report zero growth")
	}
}

// TestMedianGrowthAfter: the median of the days at or after from, the
// mean of the middle two for an even count, and 0 when no day is.
func TestMedianGrowthAfter(t *testing.T) {
	s := timeseries.New("c")
	for i, v := range []float64{100, 4, 1, 3, 2} { // 1 to 5 March
		s.Add(date(2020, 3, 1+i), v)
	}
	g := Growth{Series: map[string]*timeseries.Series{"c": s}}
	for _, tc := range []struct {
		from time.Time
		want float64
	}{
		{date(2020, 3, 1), 3},   // 1 2 3 4 100
		{date(2020, 3, 2), 2.5}, // 1 2 3 4
		{date(2020, 3, 5), 2},
		{date(2020, 3, 6), 0},
	} {
		if got := g.MedianGrowthAfter("c", tc.from); got != tc.want {
			t.Errorf("median after %s = %g, want %g", tc.from.Format(time.DateOnly), got, tc.want)
		}
	}
}

// TestMedian: the middle value of an odd count, and for an even count the
// two middle values halved and summed, the type-7 quantile's arithmetic at
// 0.5, so that fig12's printed medians stay bit for bit.
func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, math.MaxFloat64}, // their sum overflows
	} {
		if got := median(append([]float64(nil), tc.vals...)); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

// TestMedianBoundsQuick: at least half of a sample lies at or below its
// median and at least half at or above it.
func TestMedianBoundsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		m := median(append([]float64(nil), vals...))
		below, above := 0, 0
		for _, v := range vals {
			if v <= m {
				below++
			}
			if v >= m {
				above++
			}
		}
		return 2*below >= len(vals) && 2*above >= len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultCategoriesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range append(DefaultCategories(), ExtraCategories()...) {
		if seen[c.Name] {
			t.Errorf("duplicate category %q", c.Name)
		}
		seen[c.Name] = true
		if c.Class == appclass.EDUOther {
			t.Errorf("category %q uses the catch-all class", c.Name)
		}
	}
	if len(DefaultCategories()) != 6 {
		t.Errorf("Figure 12 plots 6 categories, got %d", len(DefaultCategories()))
	}
}
