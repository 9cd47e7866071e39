package core

import (
	"fmt"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/edu"
	"lockdown/internal/patterns"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
	"lockdown/internal/vpndetect"
)

func init() {
	register(Experiment{ID: "fig10", Artifact: "Figure 10", Title: "VPN traffic at the IXP-CE: port- vs domain-identified", Run: runFig10})
	register(Experiment{ID: "fig11a", Artifact: "Figure 11a", Title: "EDU normalised traffic volume across three weeks", Run: runFig11a})
	register(Experiment{ID: "fig11b", Artifact: "Figure 11b", Title: "EDU ingress/egress traffic ratio across three weeks", Run: runFig11b})
	register(Experiment{ID: "fig12", Artifact: "Figure 12", Title: "EDU daily connection growth per traffic class", Run: runFig12})
	register(Experiment{ID: "appB", Artifact: "Appendix B", Title: "EDU traffic class port map", Run: runAppB})
	register(Experiment{ID: "ablation-vpn", Artifact: "Ablation (Section 6)", Title: "VPN volume missed by a port-only classifier", Run: runAblationVPN})
	register(Experiment{ID: "ablation-binsize", Artifact: "Ablation (Section 1)", Title: "Pattern-classifier agreement vs aggregation bin size", Run: runAblationBinSize})
}

// vpnWeekSplit sums VPN volume identified per method for one week, split
// into working hours and the rest. The sums are uint64 so partial
// aggregates merge exactly at any chunk grouping (a week's volume crosses
// 2^53, where float64 addition starts rounding).
type vpnWeekSplit struct {
	portWork, portOther     uint64
	domainWork, domainOther uint64
}

func collectVPNSplit(env *Env, vp synth.VantagePoint, det *vpndetect.Detector, week calendar.Week) (vpnWeekSplit, error) {
	out, err := ScanDays(env, calendar.Days(week.Start, week.End),
		func() *vpnWeekSplit { return &vpnWeekSplit{} },
		func(env *Env, p *vpnWeekSplit, day time.Time) error {
			// The kernel folds each range of hours into exact per-method
			// sums; uint64 addition commutes, so splitting the day onto
			// the working/other buckets this way is lossless. A workday's
			// working hours are one range, the rest of the day two.
			k := FlowKey{Kind: KindVPNFlows, VP: vp, Hour: DayOf(day)}
			var work, other [3]uint64
			type hours struct {
				from, to int
				sums     *[3]uint64
			}
			split := []hours{{0, 24, &other}}
			if calendar.IsWorkday(day) {
				split = []hours{{0, calendar.WorkStart, &other}, {calendar.WorkStart, calendar.WorkEnd, &work}, {calendar.WorkEnd, 24, &other}}
			}
			for _, h := range split {
				b, err := env.hours(k, h.from, h.to)
				if err != nil {
					return err
				}
				det.SplitBatchSums(h.sums, b)
			}
			p.portWork += work[vpndetect.ByPort]
			p.domainWork += work[vpndetect.ByDomain]
			p.portOther += other[vpndetect.ByPort]
			p.domainOther += other[vpndetect.ByDomain]
			return nil
		},
		func(dst, src *vpnWeekSplit) *vpnWeekSplit {
			dst.portWork += src.portWork
			dst.portOther += src.portOther
			dst.domainWork += src.domainWork
			dst.domainOther += src.domainOther
			return dst
		})
	if err != nil {
		return vpnWeekSplit{}, err
	}
	return *out, nil
}

// runFig10 reproduces Figure 10: VPN traffic at the IXP-CE identified by
// well-known ports vs by *vpn* domains, for the base, March and April
// weeks.
func runFig10(env *Env) (*Result, error) {
	res := newResult("fig10", "VPN traffic at the IXP-CE (port- vs domain-identified)")
	vpn, err := env.Data.VPN(synth.IXPCE)
	if err != nil {
		return nil, err
	}

	weeks := calendar.AppWeeksIXP()
	splits := make([]vpnWeekSplit, len(weeks))
	for i, w := range weeks {
		splits[i], err = collectVPNSplit(env, synth.IXPCE, vpn.Detector, w)
		if err != nil {
			return nil, err
		}
	}

	table := Table{Title: "VPN volume per identification method (normalised to the base week, working hours of workdays)",
		Columns: []string{"week", "port-identified", "domain-identified"}}
	for i, w := range weeks {
		p := float64(splits[i].portWork) / float64(splits[0].portWork)
		d := float64(splits[i].domainWork) / float64(splits[0].domainWork)
		table.Rows = append(table.Rows, []string{w.Label, f2(p), f2(d)})
		res.Metrics[w.Label+"/port"] = p
		res.Metrics[w.Label+"/domain"] = d
	}
	res.addTable(table)
	res.Metrics["candidates"] = float64(vpn.Detector.Candidates())
	res.note("Port-identified VPN traffic barely changes while domain-identified VPN traffic grows by more than 200%% during March working hours and recedes partially in April.")
	return res, nil
}

// runFig11a reproduces Figure 11a: the EDU network's normalised daily
// volume for the base, transition and online-lecturing weeks.
func runFig11a(env *Env) (*Result, error) {
	res := newResult("fig11a", "EDU normalised traffic volume")
	weeks := calendar.EDUWeeks()
	hourly, err := env.series(synth.EDU, weeks[0].Start, weeks[len(weeks)-1].End)
	if err != nil {
		return nil, err
	}
	profiles, err := edu.VolumeByWeek(hourly, weeks)
	if err != nil {
		return nil, err
	}
	table := Table{Title: "Normalised daily volume (minimum day = 1)", Columns: []string{"day", "base", "transition", "online-lecturing"}}
	for i := range profiles[0].Days {
		row := []string{profiles[0].Days[i].Day.Weekday().String()}
		for _, p := range profiles {
			row = append(row, f2(p.Days[i].Value))
		}
		table.Rows = append(table.Rows, row)
	}
	res.addTable(table)
	res.Metrics["workday-drop"] = edu.WorkdayDrop(profiles[0], profiles[2])
	res.note("Workday volume drops by %.0f%% between the base week and the online-lecturing week; weekends change little.", -res.Metrics["workday-drop"]*100)
	return res, nil
}

// runFig11b reproduces Figure 11b: the EDU network's ingress/egress ratio.
func runFig11b(env *Env) (*Result, error) {
	res := newResult("fig11b", "EDU ingress vs egress traffic ratio")
	g, err := env.gen(synth.EDU)
	if err != nil {
		return nil, err
	}
	weeks := calendar.EDUWeeks()
	in, out := g.DirectionSeries(weeks[0].Start, weeks[len(weeks)-1].End)
	profiles, err := edu.InOutRatio(in, out, weeks)
	if err != nil {
		return nil, err
	}
	table := Table{Title: "Ingress/egress ratio per day", Columns: []string{"day", "base", "transition", "online-lecturing"}}
	var baseSum, onlineSum float64
	var baseN, onlineN int
	for i := range profiles[0].Days {
		row := []string{profiles[0].Days[i].Day.Weekday().String()}
		for j, p := range profiles {
			row = append(row, f2(p.Days[i].Value))
			if calendar.IsWorkday(p.Days[i].Day) {
				if j == 0 {
					baseSum += p.Days[i].Value
					baseN++
				}
				if j == 2 {
					onlineSum += p.Days[i].Value
					onlineN++
				}
			}
		}
		table.Rows = append(table.Rows, row)
	}
	res.addTable(table)
	res.Metrics["base-workday-ratio"] = baseSum / float64(baseN)
	res.Metrics["online-workday-ratio"] = onlineSum / float64(onlineN)
	res.note("The workday ingress/egress ratio collapses from %.1f to %.1f once lecturing moves online.",
		res.Metrics["base-workday-ratio"], res.Metrics["online-workday-ratio"])
	return res, nil
}

// runFig12 reproduces Figure 12: daily connection counts relative to the
// February 27 baseline for the selected traffic categories. To keep the
// experiment affordable it samples three days per week across the 72-day
// window instead of every day.
func runFig12(env *Env) (*Result, error) {
	res := newResult("fig12", "EDU daily connection growth per traffic class")
	start := time.Date(2020, 2, 27, 0, 0, 0, 0, time.UTC)
	end := time.Date(2020, 5, 8, 0, 0, 0, 0, time.UTC)
	var days []time.Time
	for d := start; d.Before(end); d = d.AddDate(0, 0, 1) {
		// Sample Tuesdays, Thursdays and Saturdays plus the baseline day.
		switch d.Weekday() {
		case time.Tuesday, time.Thursday, time.Saturday:
		default:
			if !d.Equal(start) {
				continue
			}
		}
		days = append(days, d)
	}
	// The month walk shards over the sampled days and counts where it
	// reads: each cached day is classified in place into its counter, so
	// nothing but the cache holds a flow batch and the cache budget bounds
	// the walk. Counts are integers, which makes the merge exact at any
	// chunking.
	counts, err := ScanDays(env, days,
		func() edu.DailyCounts { return make(edu.DailyCounts) },
		func(env *Env, part edu.DailyCounts, d time.Time) error {
			b, err := env.flowBatch(synth.EDU, d)
			if err != nil {
				return err
			}
			var day appclass.EDUCounter
			day.AddBatch(b)
			part[calendar.DayStart(d)] = day.Counts()
			return nil
		},
		edu.DailyCounts.Merge)
	if err != nil {
		return nil, err
	}
	cats := append(edu.DefaultCategories(), edu.ExtraCategories()...)
	growth := edu.ConnectionGrowth(counts, start, cats)

	table := Table{Title: "Median daily connection growth after the state of emergency (relative to Feb 27)", Columns: []string{"category", "median growth"}}
	after := calendar.EDUClosure
	for _, c := range cats {
		m := growth.MedianGrowthAfter(c.Name, after)
		table.Rows = append(table.Rows, []string{c.Name, f2(m)})
		res.Metrics[c.Name] = m
	}
	res.addTable(table)
	res.note("Incoming VPN, remote-desktop and SSH connections multiply; outgoing connections to hypergiants, push services and music streaming collapse.")
	return res, nil
}

// runAppB reproduces Appendix B: the EDU traffic class port map.
func runAppB(*Env) (*Result, error) {
	res := newResult("appB", "EDU traffic classes (Appendix B)")
	table := Table{Title: "Traffic classes and example ports", Columns: []string{"class", "example ports"}}
	examples := map[appclass.EDUClass]string{
		appclass.EDUWeb:           "TCP/80, TCP/443, TCP/8000, TCP/8080",
		appclass.EDUQUIC:          "UDP/443",
		appclass.EDUPush:          "TCP/5223, TCP/5228",
		appclass.EDUEmail:         "TCP/25, TCP/110, TCP/143, TCP/465, TCP/587, TCP/993, TCP/995",
		appclass.EDUVPN:           "UDP/500, UDP/4500, TCP+UDP/1194, ESP, GRE",
		appclass.EDUSSH:           "TCP/22",
		appclass.EDURemoteDesktop: "TCP+UDP/1494, TCP/3389, TCP+UDP/5938",
		appclass.EDUSpotify:       "TCP/4070 or AS8403",
	}
	for _, cls := range appclass.AllEDUClasses() {
		table.Rows = append(table.Rows, []string{string(cls), examples[cls]})
	}
	res.addTable(table)
	res.Metrics["classes"] = float64(len(appclass.AllEDUClasses()))
	return res, nil
}

// runAblationVPN quantifies Section 6's argument that a port-only VPN
// classifier vastly undercounts VPN traffic: the share of true VPN volume
// (port- or domain-identified) that the port-only view misses during the
// March week.
func runAblationVPN(env *Env) (*Result, error) {
	res := newResult("ablation-vpn", "VPN volume missed by a port-only classifier (IXP-CE, March week)")
	vpn, err := env.Data.VPN(synth.IXPCE)
	if err != nil {
		return nil, err
	}

	week := calendar.AppWeeksIXP()[1]
	type volSplit struct{ port, domain uint64 } // exact merge at any chunking
	split, err := ScanDays(env, calendar.Days(week.Start, week.End),
		func() *volSplit { return &volSplit{} },
		func(env *Env, p *volSplit, day time.Time) error {
			b, err := env.vpnFlowBatch(synth.IXPCE, day)
			if err != nil {
				return err
			}
			var s [3]uint64
			vpn.Detector.SplitBatchSums(&s, b)
			p.port += s[vpndetect.ByPort]
			p.domain += s[vpndetect.ByDomain]
			return nil
		},
		func(dst, src *volSplit) *volSplit {
			dst.port += src.port
			dst.domain += src.domain
			return dst
		})
	if err != nil {
		return nil, err
	}
	portVol, domainVol := float64(split.port), float64(split.domain)
	total := portVol + domainVol
	missed := 0.0
	if total > 0 {
		missed = domainVol / total
	}
	table := Table{Title: "VPN volume by identification method", Columns: []string{"method", "share of identified VPN volume"}}
	table.Rows = append(table.Rows, []string{"well-known ports", f3(portVol / total)})
	table.Rows = append(table.Rows, []string{"*vpn* domains on TCP/443", f3(missed)})
	res.addTable(table)
	res.Metrics["missed-share"] = missed
	res.note("A port-only classifier misses %.0f%% of the identified VPN volume during the lockdown week.", missed*100)
	return res, nil
}

// runAblationBinSize evaluates the pattern classifier of Figure 2 at
// different aggregation bin sizes (the paper uses 6 hours).
func runAblationBinSize(env *Env) (*Result, error) {
	res := newResult("ablation-binsize", "Pattern-classifier agreement vs aggregation bin size (ISP-CE, February)")
	hourly, err := env.series(synth.ISPCE, time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, err
	}
	table := Table{Title: "February agreement between calendar and classification", Columns: []string{"bin size (h)", "agreement"}}
	for _, bin := range []int{1, 2, 3, 4, 6, 8, 12} {
		agreement, err := februaryAgreement(hourly, bin)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{fmt.Sprintf("%d", bin), f3(agreement)})
		res.Metrics[fmt.Sprintf("bin%d", bin)] = agreement
	}
	res.addTable(table)
	res.note("The 6-hour aggregation of the paper classifies the February baseline essentially perfectly; very coarse bins lose accuracy.")
	return res, nil
}

// februaryAgreement trains the pattern classifier with the given bin size
// and returns the fraction of February days whose classification agrees
// with the calendar.
func februaryAgreement(hourly *timeseries.Series, binHours int) (float64, error) {
	from := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	clf, err := patterns.Train(hourly, from, to, binHours)
	if err != nil {
		return 0, err
	}
	results := clf.ClassifyRange(hourly, from, to)
	if len(results) == 0 {
		return 0, fmt.Errorf("ablation-binsize: no days classified")
	}
	match := 0
	for _, r := range results {
		if r.Match {
			match++
		}
	}
	return float64(match) / float64(len(results)), nil
}
