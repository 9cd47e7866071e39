package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/patterns"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

func init() {
	register(Experiment{ID: "fig1", Artifact: "Figure 1", Title: "Weekly normalised traffic volume per vantage point", Run: runFig1, claims: []claim{
		{"§3.1", "ISP-CE lockdown-week volume +15-20%", "ISP-CE/week13", "", 1.10, 1.35},
		{"§3.1", "IXP-CE grows at least as much as the ISP-CE in week 13", "IXP-CE/week13", "ISP-CE/week13", 0, inf},
		{"§3.1", "IXP-US lags IXP-CE in week 13", "IXP-CE/week13", "IXP-US/week13", 0.002, inf},
		{"§3.1", "mobile volume dips slightly in week 13", "MOBILE/week13", "", 0.8, 1.05},
		{"§3.1", "roaming (IPX) volume collapses by week 17", "IPX/week17", "", -inf, 0.8},
	}})
	register(Experiment{ID: "fig2a", Artifact: "Figure 2a", Title: "ISP-CE hourly patterns for Feb 19, Feb 22 and Mar 25", Run: runFig2a, claims: []claim{
		{"§3.1", "a weekend morning carries more of the daily peak than a workday morning", "feb22/morning-share", "feb19/morning-share", 0.002, inf},
		{"§3.1", "the lockdown workday morning resembles a weekend", "mar25/morning-share", "feb19/morning-share", 0.052, inf},
	}})
	register(Experiment{ID: "fig2bc", Artifact: "Figures 2b/2c", Title: "Workday-like vs weekend-like day classification (ISP-CE, IXP-CE)", Run: runFig2bc, claims: []claim{
		{"§3.1", "ISP-CE: few February workdays classify weekend-like", "ISP-CE/pre-lockdown-workdays-weekendlike", "", -inf, 0.25},
		{"§3.1", "ISP-CE: almost all April/May workdays classify weekend-like", "ISP-CE/lockdown-workdays-weekendlike", "", 0.75, inf},
		{"§3.1", "IXP-CE: few February workdays classify weekend-like", "IXP-CE/pre-lockdown-workdays-weekendlike", "", -inf, 0.25},
		{"§3.1", "IXP-CE: almost all April/May workdays classify weekend-like", "IXP-CE/lockdown-workdays-weekendlike", "", 0.75, inf},
	}})
	register(Experiment{ID: "fig3a", Artifact: "Figure 3a", Title: "ISP-CE hourly volume for the four selected weeks", Run: runFig3a, claims: []claim{
		{"§3.1", "ISP-CE stage-1 week mean +15-20% over the base week", "stage1/mean", "", 1.12, 1.25},
		{"§3.1", "ISP-CE growth recedes by stage 3", "stage1/mean", "stage3/mean", 0.002, inf},
		{"§3.1", "ISP-CE stage-3 mean stays above the base week", "stage3/mean", "", 1, inf},
		{"§3.1", "the peak grows less than the mean (the valleys fill up)", "stage1/peak", "stage1/mean", -inf, 0.05},
	}})
	register(Experiment{ID: "fig3b", Artifact: "Figure 3b", Title: "IXP hourly volume (workday/weekend) for the four selected weeks", Run: runFig3b, claims: []claim{
		{"§3.1", "IXP-CE minimum level rises by stage 2", "IXP-CE/stage2/min", "", 1.002, inf},
		{"§3.1", "IXP-SE minimum level rises by stage 2", "IXP-SE/stage2/min", "", 1.002, inf},
		{"§3.1", "the IXP-US increase lags the European IXPs in stage 1", "IXP-CE/stage1/mean", "IXP-US/stage1/mean", 0.002, inf},
	}})
}

// runFig1 reproduces Figure 1: daily traffic averaged per calendar week,
// normalised by week 3, for all vantage points.
func runFig1(env *Env) (*Result, error) {
	res := newResult("fig1", "Weekly normalised traffic volume, calendar weeks 1-18")
	const baselineWeek = 3
	vps := synth.AllVantagePoints()

	perVP := make(map[synth.VantagePoint]map[int]float64, len(vps))
	weekSet := make(map[int]bool)
	// fig1 builds every vantage point's model, first in a suite run. It
	// takes them last to first: the experiments after it in paper order
	// read the ISP-CE and the IXPs first, so their workers build those
	// models meanwhile instead of waiting on fig1's (a serial walk in
	// paper order cost suite-pN ~5 % wall on 2 cores). The result does not
	// depend on the order.
	for _, vp := range slices.Backward(vps) {
		s, err := env.series(vp, calendar.StudyStart, calendar.StudyEnd)
		if err != nil {
			return nil, err
		}
		weekly := s.WeeklyMeans()
		base, ok := weekly[baselineWeek]
		if !ok || base == 0 {
			return nil, fmt.Errorf("fig1: %s has no baseline week", vp)
		}
		norm := make(map[int]float64, len(weekly))
		for w, v := range weekly {
			norm[w] = v / base
			weekSet[w] = true
		}
		perVP[vp] = norm
	}

	var weeks []int
	for w := range weekSet {
		if w >= 1 && w <= 18 {
			weeks = append(weeks, w)
		}
	}
	sort.Ints(weeks)

	cols := []string{"week"}
	for _, vp := range vps {
		cols = append(cols, string(vp))
	}
	table := Table{Title: "Normalised weekly volume (week 3 = 1.00)", Columns: cols}
	for _, w := range weeks {
		row := []string{fmt.Sprintf("%d", w)}
		for _, vp := range vps {
			row = append(row, f3(perVP[vp][w]))
		}
		table.Rows = append(table.Rows, row)
	}
	res.addTable(table)

	for _, vp := range vps {
		res.Metrics[string(vp)+"/week13"] = perVP[vp][13]
		res.Metrics[string(vp)+"/week17"] = perVP[vp][17]
	}
	res.note("Lockdown-week growth: ISP-CE %.0f%%, IXP-CE %.0f%%, IXP-SE %.0f%%, IXP-US %.0f%%.",
		(perVP[synth.ISPCE][13]-1)*100, (perVP[synth.IXPCE][13]-1)*100,
		(perVP[synth.IXPSE][13]-1)*100, (perVP[synth.IXPUS][13]-1)*100)
	return res, nil
}

// runFig2a reproduces Figure 2a: normalised hourly volume of the ISP-CE
// for a pre-lockdown Wednesday, a pre-lockdown Saturday and a lockdown
// Wednesday.
func runFig2a(env *Env) (*Result, error) {
	res := newResult("fig2a", "ISP-CE hourly traffic for Feb 19 (Wed), Feb 22 (Sat), Mar 25 (Wed)")
	days := []struct {
		label string
		day   time.Time
	}{
		{"Wednesday Feb 19", time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)},
		{"Saturday Feb 22", time.Date(2020, 2, 22, 0, 0, 0, 0, time.UTC)},
		{"Wednesday Mar 25 (lockdown)", time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)},
	}
	curves := make(map[string][]float64)
	for _, d := range days {
		s, err := env.series(synth.ISPCE, d.day, d.day.AddDate(0, 0, 1))
		if err != nil {
			return nil, err
		}
		curves[d.label] = s.NormalizeByMax().Values()
	}
	table := Table{Title: "Normalised hourly volume (per-day maximum = 1)", Columns: []string{"hour", days[0].label, days[1].label, days[2].label}}
	for h := 0; h < 24; h++ {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%02d:00", h), f3(curves[days[0].label][h]), f3(curves[days[1].label][h]), f3(curves[days[2].label][h]),
		})
	}
	res.addTable(table)

	res.Metrics["feb19/morning-share"] = curves[days[0].label][10]
	res.Metrics["feb22/morning-share"] = curves[days[1].label][10]
	res.Metrics["mar25/morning-share"] = curves[days[2].label][10]
	res.note("Morning (10:00) share of the daily peak: Feb 19 %.2f, Feb 22 %.2f, Mar 25 %.2f.",
		res.Metrics["feb19/morning-share"], res.Metrics["feb22/morning-share"], res.Metrics["mar25/morning-share"])
	return res, nil
}

// runFig2bc reproduces Figures 2b/2c: the per-day workday-like vs
// weekend-like classification for the ISP-CE and IXP-CE from January 1 to
// May 11.
func runFig2bc(env *Env) (*Result, error) {
	res := newResult("fig2bc", "Workday-like vs weekend-like classification, Jan 1 - May 11")
	for _, vp := range []synth.VantagePoint{synth.ISPCE, synth.IXPCE} {
		hourly, err := env.series(vp, calendar.StudyStart, time.Date(2020, 5, 12, 0, 0, 0, 0, time.UTC))
		if err != nil {
			return nil, err
		}
		clf, err := patterns.Train(hourly, time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC), patterns.DefaultBinHours)
		if err != nil {
			return nil, fmt.Errorf("fig2bc: training on %s: %w", vp, err)
		}
		results := clf.ClassifyRange(hourly, calendar.StudyStart, time.Date(2020, 5, 12, 0, 0, 0, 0, time.UTC))
		sums := patterns.Summarize(results)

		table := Table{
			Title:   fmt.Sprintf("%s: weekend-like classifications per calendar week", vp),
			Columns: []string{"week", "workdays", "workdays weekend-like", "weekend days", "weekend days weekend-like"},
		}
		var preWorkdays, preWeekendLike, postWorkdays, postWeekendLike int
		for _, s := range sums {
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%d", s.Week), fmt.Sprintf("%d", s.Workdays), fmt.Sprintf("%d", s.WorkdaysWeekendLike),
				fmt.Sprintf("%d", s.WeekendDays), fmt.Sprintf("%d", s.WeekendWeekendLike),
			})
			if s.Week >= 5 && s.Week <= 9 { // February, pre-lockdown
				preWorkdays += s.Workdays
				preWeekendLike += s.WorkdaysWeekendLike
			}
			if s.Week >= 14 && s.Week <= 18 { // April onwards
				postWorkdays += s.Workdays
				postWeekendLike += s.WorkdaysWeekendLike
			}
		}
		res.addTable(table)
		if preWorkdays > 0 {
			res.Metrics[string(vp)+"/pre-lockdown-workdays-weekendlike"] = float64(preWeekendLike) / float64(preWorkdays)
		}
		if postWorkdays > 0 {
			res.Metrics[string(vp)+"/lockdown-workdays-weekendlike"] = float64(postWeekendLike) / float64(postWorkdays)
		}
	}
	return res, nil
}

// weekStats summarises one selected week against the base week.
type weekStats struct {
	label         string
	meanGrowth    float64
	peakGrowth    float64
	minGrowth     float64
	workdayGrowth float64
	weekendGrowth float64
}

func statsForWeeks(env *Env, vp synth.VantagePoint, weeks []calendar.Week) ([]weekStats, error) {
	if len(weeks) == 0 {
		return nil, fmt.Errorf("no weeks given")
	}
	series := make([]*timeseries.Series, len(weeks))
	for i, w := range weeks {
		s, err := env.series(vp, w.Start, w.End)
		if err != nil {
			return nil, err
		}
		series[i] = s
	}
	base := series[0]
	baseMean := base.Mean()
	baseMin := base.Min()
	basePeak := base.Max()
	daypart := func(s *timeseries.Series, w calendar.Week, weekend bool) float64 {
		sub := s.Filter(func(p timeseries.Point) bool {
			return (calendar.IsWeekend(p.T) || calendar.IsHoliday(p.T)) == weekend
		})
		return sub.Mean()
	}
	baseWorkday := daypart(base, weeks[0], false)
	baseWeekend := daypart(base, weeks[0], true)

	out := make([]weekStats, len(weeks))
	for i, w := range weeks {
		s := series[i]
		out[i] = weekStats{
			label:         w.Label,
			meanGrowth:    s.Mean() / baseMean,
			peakGrowth:    s.Max() / basePeak,
			minGrowth:     s.Min() / baseMin,
			workdayGrowth: daypart(s, w, false) / baseWorkday,
			weekendGrowth: daypart(s, w, true) / baseWeekend,
		}
	}
	return out, nil
}

// runFig3a reproduces Figure 3a: the ISP-CE's traffic across the base,
// stage-1, stage-2 and stage-3 weeks.
func runFig3a(env *Env) (*Result, error) {
	res := newResult("fig3a", "ISP-CE traffic across the four selected weeks")
	stats, err := statsForWeeks(env, synth.ISPCE, calendar.ISPWeeks())
	if err != nil {
		return nil, err
	}
	table := Table{Title: "ISP-CE growth relative to the base week", Columns: []string{"week", "mean", "peak", "minimum", "workday mean", "weekend mean"}}
	for _, s := range stats {
		table.Rows = append(table.Rows, []string{s.label, f3(s.meanGrowth), f3(s.peakGrowth), f3(s.minGrowth), f3(s.workdayGrowth), f3(s.weekendGrowth)})
		res.Metrics[s.label+"/mean"] = s.meanGrowth
		res.Metrics[s.label+"/peak"] = s.peakGrowth
		res.Metrics[s.label+"/min"] = s.minGrowth
	}
	res.addTable(table)
	res.note("Mean volume against the base week: %+.0f%% just after the lockdown, %+.0f%% in May.",
		(res.Metrics["stage1/mean"]-1)*100, (res.Metrics["stage3/mean"]-1)*100)
	return res, nil
}

// runFig3b reproduces Figure 3b: the three IXPs' traffic across the four
// selected weeks, split into workdays and weekends.
func runFig3b(env *Env) (*Result, error) {
	res := newResult("fig3b", "IXP traffic across the four selected weeks (workday/weekend)")
	vps := []synth.VantagePoint{synth.IXPCE, synth.IXPUS, synth.IXPSE}
	for _, vp := range vps {
		stats, err := statsForWeeks(env, vp, calendar.IXPWeeks())
		if err != nil {
			return nil, err
		}
		table := Table{Title: fmt.Sprintf("%s growth relative to the base week", vp), Columns: []string{"week", "mean", "peak", "minimum", "workday mean", "weekend mean"}}
		for _, s := range stats {
			table.Rows = append(table.Rows, []string{s.label, f3(s.meanGrowth), f3(s.peakGrowth), f3(s.minGrowth), f3(s.workdayGrowth), f3(s.weekendGrowth)})
			res.Metrics[string(vp)+"/"+s.label+"/mean"] = s.meanGrowth
			res.Metrics[string(vp)+"/"+s.label+"/min"] = s.minGrowth
		}
		res.addTable(table)
	}
	return res, nil
}
