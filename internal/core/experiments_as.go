package core

import (
	"fmt"
	"sort"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/calendar"
	"lockdown/internal/hyper"
	"lockdown/internal/linkutil"
	"lockdown/internal/remotework"
	"lockdown/internal/synth"
)

func init() {
	register(Experiment{ID: "fig4", Artifact: "Figure 4", Title: "ISP-CE hypergiant vs other-AS growth by daypart", Run: runFig4, claims: []claim{
		{"§3.2", "other ASes outgrow hypergiants by week 13, workday 09:00-16:59", "other-week13/Workday 09:00-16:59", "hg-week13/Workday 09:00-16:59", 0.05, inf},
		{"§3.2", "other ASes outgrow hypergiants by week 13, workday 17:00-24:00", "other-week13/Workday 17:00-24:00", "hg-week13/Workday 17:00-24:00", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants by week 13, weekend 09:00-16:59", "other-week13/Weekend 09:00-16:59", "hg-week13/Weekend 09:00-16:59", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants by week 13, weekend 17:00-24:00", "other-week13/Weekend 17:00-24:00", "hg-week13/Weekend 17:00-24:00", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants in week 15, workday 09:00-16:59", "gap-week15/Workday 09:00-16:59", "", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants in week 15, workday 17:00-24:00", "gap-week15/Workday 17:00-24:00", "", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants in week 15, weekend 09:00-16:59", "gap-week15/Weekend 09:00-16:59", "", 0.002, inf},
		{"§3.2", "other ASes outgrow hypergiants in week 15, weekend 17:00-24:00", "gap-week15/Weekend 17:00-24:00", "", 0.002, inf},
		{"§3.2", "hypergiant working-hours traffic grows substantially by week 13", "hg-week13/Workday 09:00-16:59", "", 1.052, inf},
	}})
	register(Experiment{ID: "fig5", Artifact: "Figure 5", Title: "IXP-CE member link utilisation ECDFs (base vs stage 2)", Run: runFig5, claims: []claim{
		{"§3", "the stage-2 utilisation curves lie right of the base week's", "shifted-right", "", 1, 1},
		{"§3", "median member utilisation rises", "median-shift", "", 0.002, inf},
	}})
	register(Experiment{ID: "fig6", Artifact: "Figure 6", Title: "ISP-CE total vs residential traffic shift per AS", Run: runFig6, claims: []claim{
		{"§3", "total and residential traffic shifts correlate", "correlation", "", 0.3, inf},
		{"§3", "some ASes gain both total and residential traffic", "quadrant/total increase, residential increase", "", 1, inf},
		{"§3", "some enterprise ASes lose total traffic while their residential traffic grows", "quadrant/total decrease, residential increase", "", 1, inf},
	}})
	register(Experiment{ID: "tab2", Artifact: "Table 2 / Appendix A", Title: "Hypergiant AS list", Run: runTab2, claims: []claim{
		{"App. A", "15 hypergiant ASes", "hypergiants", "", 15, 15},
	}})
}

// runFig4 reproduces Figure 4: normalised weekly growth of hypergiant and
// other-AS traffic at the ISP-CE, split by daypart.
func runFig4(env *Env) (*Result, error) {
	res := newResult("fig4", "Hypergiant vs other-AS weekly growth (ISP-CE)")
	g, err := env.gen(synth.ISPCE)
	if err != nil {
		return nil, err
	}
	hg, other := g.HypergiantSeries(calendar.StudyStart, calendar.StudyEnd)
	analysis, err := hyper.Analyze(hg, other, 3)
	if err != nil {
		return nil, err
	}

	cols := []string{"week"}
	for _, dp := range hyper.Dayparts() {
		cols = append(cols, "HG "+dp.String(), "other "+dp.String())
	}
	table := Table{Title: "Normalised growth relative to calendar week 3", Columns: cols}
	for _, w := range analysis.Weeks() {
		if w < 1 || w > 18 {
			continue
		}
		row := []string{fmt.Sprintf("%d", w)}
		for i := range hyper.Dayparts() {
			row = append(row, f3(analysis.Hypergiants[i].Values[w]), f3(analysis.Others[i].Values[w]))
		}
		table.Rows = append(table.Rows, row)
	}
	res.addTable(table)

	for i, dp := range hyper.Dayparts() {
		res.Metrics["gap-week15/"+dp.String()] = analysis.GapAfter(15, i)
		res.Metrics["hg-week13/"+dp.String()] = analysis.Hypergiants[i].Values[13]
		res.Metrics["other-week13/"+dp.String()] = analysis.Others[i].Values[13]
	}
	return res, nil
}

// runFig5 reproduces Figure 5: ECDFs of per-member link utilisation at the
// IXP-CE for a base-week workday and a stage-2 workday.
func runFig5(env *Env) (*Result, error) {
	res := newResult("fig5", "IXP-CE member link utilisation before and during the lockdown")
	g, err := env.gen(synth.IXPCE)
	if err != nil {
		return nil, err
	}
	toDay := func(stats []synth.MemberLinkStats) linkutil.DayUtilization {
		var d linkutil.DayUtilization
		for _, m := range stats {
			d.Min = append(d.Min, m.Min)
			d.Avg = append(d.Avg, m.Avg)
			d.Max = append(d.Max, m.Max)
		}
		return d
	}
	base := toDay(g.MemberUtilization(time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)))
	stage := toDay(g.MemberUtilization(time.Date(2020, 4, 22, 0, 0, 0, 0, time.UTC)))
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := stage.Validate(); err != nil {
		return nil, err
	}
	cmp := linkutil.Comparison{Base: base, Stage: stage}
	probes := linkutil.DefaultProbes()
	curves := cmp.Curves(probes)

	table := Table{Title: "Fraction of member ports with utilisation <= x", Columns: []string{"utilisation", "base min", "base avg", "base max", "stage2 min", "stage2 avg", "stage2 max"}}
	for i, p := range probes {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.0f%%", p*100),
			f3(curves["base-min"][i].Fraction), f3(curves["base-avg"][i].Fraction), f3(curves["base-max"][i].Fraction),
			f3(curves["stage-min"][i].Fraction), f3(curves["stage-avg"][i].Fraction), f3(curves["stage-max"][i].Fraction),
		})
	}
	res.addTable(table)

	res.Metrics["members"] = float64(base.Members())
	res.Metrics["median-shift"] = cmp.MedianShift()
	res.Metrics["shifted-right"] = 0
	if cmp.ShiftedRight(probes, 0.02) {
		res.Metrics["shifted-right"] = 1
	}
	res.note("Median average utilisation moves by %+.1f points from the base week to stage 2.", cmp.MedianShift()*100)
	return res, nil
}

// runFig6 reproduces Figure 6: the per-AS scatter of total vs residential
// traffic shift between the February base week and the March lockdown
// week, using the ISP's full view including transit.
func runFig6(env *Env) (*Result, error) {
	res := newResult("fig6", "Total vs residential traffic shift per AS (ISP-CE incl. transit)")
	g, err := env.gen(synth.ISPCE)
	if err != nil {
		return nil, err
	}
	weeks := calendar.ISPWeeks()
	asWeek := func(w calendar.Week) map[uint32]remotework.ASWeek {
		out := make(map[uint32]remotework.ASWeek)
		total := g.ASVolumeBetween(w.Start, w.End)
		var wed, sat time.Time
		for _, d := range calendar.Days(w.Start, w.End) {
			if d.Weekday() == time.Wednesday && wed.IsZero() {
				wed = d
			}
			if d.Weekday() == time.Saturday && sat.IsZero() {
				sat = d
			}
		}
		wedVol := g.ASVolumeBetween(wed, wed.AddDate(0, 0, 1))
		satVol := g.ASVolumeBetween(sat, sat.AddDate(0, 0, 1))
		for asn, v := range total {
			out[asn] = remotework.ASWeek{
				Total:       v.Total,
				Residential: v.Residential,
				Workday:     wedVol[asn].Total,
				Weekend:     satVol[asn].Total,
			}
		}
		return out
	}
	analysis := remotework.Analyze(asWeek(weeks[0]), asWeek(weeks[1]))

	table := Table{Title: "Per-AS traffic shift (normalised differences)", Columns: []string{"ASN", "group", "diff total", "diff residential", "quadrant"}}
	points := append([]remotework.Point(nil), analysis.Points...)
	sort.Slice(points, func(i, j int) bool { return points[i].ASN < points[j].ASN })
	for _, p := range points {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("AS%d", p.ASN), p.Group.String(), f3(p.DiffTotal), f3(p.DiffResidential), string(p.Quadrant),
		})
	}
	res.addTable(table)

	counts := analysis.QuadrantCounts()
	quads := Table{Title: "Quadrant counts", Columns: []string{"quadrant", "ASes"}}
	for _, q := range []remotework.Quadrant{remotework.QuadrantBothUp, remotework.QuadrantBothDown, remotework.QuadrantTotalDownRes, remotework.QuadrantTotalUpRes} {
		quads.Rows = append(quads.Rows, []string{string(q), fmt.Sprintf("%d", counts[q])})
		res.Metrics["quadrant/"+string(q)] = float64(counts[q])
	}
	res.addTable(quads)
	res.Metrics["correlation"] = analysis.Correlation
	res.Metrics["ases"] = float64(len(analysis.Points))
	res.note("Correlation of the total and residential shifts: r = %.2f.", analysis.Correlation)
	return res, nil
}

// runTab2 reproduces Table 2 / Appendix A: the hypergiant AS list.
func runTab2(*Env) (*Result, error) {
	res := newResult("tab2", "Hypergiant ASes (Appendix A)")
	reg := asdb.Default()
	table := Table{Title: "Hypergiant ASes", Columns: []string{"organisation", "ASN"}}
	for _, a := range reg.Hypergiants() {
		table.Rows = append(table.Rows, []string{a.Org, fmt.Sprintf("%d", a.ASN)})
	}
	res.addTable(table)
	res.Metrics["hypergiants"] = float64(len(reg.Hypergiants()))
	return res, nil
}
