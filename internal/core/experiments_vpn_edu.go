package core

import (
	"fmt"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/edu"
	"lockdown/internal/flowrec"
	"lockdown/internal/patterns"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
	"lockdown/internal/vpndetect"
)

func init() {
	register(Experiment{ID: "fig10", Artifact: "Figure 10", Title: "VPN traffic at the IXP-CE: port- vs domain-identified", Run: runFig10, reads: []dayRead{
		{kind: KindVPNFlows, vp: synth.IXPCE, days: weekDays(calendar.AppWeeksIXP(), false), by: vpnSplit},
	}, claims: []claim{
		{"§6", "domain-identified VPN traffic ≥ 2.2x in March working hours (paper: > +200%)", "stage1/domain", "", 2.2, 4.5},
		{"§6", "port-identified VPN traffic barely changes", "stage1/port", "", 0.85, 1.35},
		{"§6", "domain-identified VPN traffic recedes partially in April", "stage1/domain", "stage2/domain", 0.002, inf},
		{"§6", "domain growth exceeds port growth in March", "stage1/domain", "stage1/port", 1, inf},
		{"§6", "domain growth exceeds port growth in April", "stage2/domain", "stage2/port", 1, inf},
	}})
	register(Experiment{ID: "fig11a", Artifact: "Figure 11a", Title: "EDU normalised traffic volume across three weeks", Run: runFig11a, claims: []claim{
		{"§7", "EDU workday volume drops by up to 55%", "workday-drop", "", -0.75, -0.35},
	}})
	register(Experiment{ID: "fig11b", Artifact: "Figure 11b", Title: "EDU ingress/egress traffic ratio across three weeks", Run: runFig11b, claims: []claim{
		{"§7", "EDU base-week workdays are strongly ingress-dominated", "base-workday-ratio", "", 5, inf},
	}})
	register(Experiment{ID: "fig12", Artifact: "Figure 12", Title: "EDU daily connection growth per traffic class", Run: runFig12, reads: []dayRead{
		{kind: KindFlows, vp: synth.EDU, days: fig12Days(), by: eduCounts},
	}, claims: []claim{
		{"§7", "incoming VPN connections 4.8x", "Eyeball ISPs (VPN, In)", "", 2.5, 6.5},
		{"§7", "incoming remote-desktop connections 5.9x", "Remote desktop (In)", "", 2.5, 7.5},
		{"§7", "incoming SSH connections 9.1x", "SSH (In)", "", 3, 12},
		{"§7", "remote desktop grows at least as much as VPN", "Remote desktop (In)", "Eyeball ISPs (VPN, In)", 0, inf},
		{"§7", "SSH grows at least as much as remote desktop", "SSH (In)", "Remote desktop (In)", 0, inf},
		{"§7", "incoming web connections grow", "Eyeball ISPs (Web, In)", "", 1.3, inf},
		{"§7", "outgoing web connections to hypergiants collapse", "Hypergiants (Web, Out)", "", 0.2, 0.7},
		{"§7", "outgoing push-notification connections collapse", "Push notifications (Out)", "", 0.1, 0.7},
		{"§7", "outgoing music-streaming connections collapse", "Spotify (Out)", "", 0.1, 0.7},
	}})
	register(Experiment{ID: "appB", Artifact: "Appendix B", Title: "EDU traffic class port map", Run: runAppB, claims: []claim{
		{"App. B", "eight EDU traffic classes", "classes", "", 8, 8},
	}})
	register(Experiment{ID: "ablation-vpn", Artifact: "Ablation (Section 6)", Title: "VPN volume missed by a port-only classifier", Run: runAblationVPN, reads: []dayRead{
		{kind: KindVPNFlows, vp: synth.IXPCE, days: weekDays(calendar.AppWeeksIXP()[1:2], false), by: vpnSplit},
	}, claims: []claim{
		{"§6", "a port-only classifier misses about half the VPN volume", "missed-share", "", 0.40, 0.65},
	}})
	register(Experiment{ID: "ablation-binsize", Artifact: "Ablation (Section 1)", Title: "Pattern-classifier agreement vs aggregation bin size", Run: runAblationBinSize, claims: []claim{
		{"§1", "6-hour bins classify the February baseline", "bin6", "", 0.85, inf},
		{"§1", "12-hour bins lose accuracy against 6-hour bins", "bin6", "bin12", 0.002, inf},
	}})
}

// vpnDay is Figure 10's reduction of a day (vpnSplit): its VPN volume
// per identification method, in vpndetect's index order, within the
// working hours and in the rest of the day. A weekend day has no working
// hours. The sums are uint64, so every merge of days is exact (a week's
// volume crosses 2^53, where float64 addition starts rounding).
type vpnDay struct {
	work, other [3]uint64
}

// vpnSplit folds an IXP-CE vpn-flows/ day into a vpnDay with the
// vantage point's VPN detector. The kernel adds each piece to exact
// per-method sums: a workday's pieces of the working hours to work, every
// other piece to other. The hours tile the day, so work + other is the
// day's volume: the VPN ablation reads it so.
var vpnSplit = &reduction{owner: "fig10", build: func(d *Dataset) (reduceFunc, error) {
	vpn, err := d.VPN(synth.IXPCE)
	if err != nil {
		return nil, err
	}
	det := vpn.Detector
	return func(k FlowKey) fold {
		day, workday := new(vpnDay), calendar.IsWorkday(k.Hour.Time())
		return fold{
			add: func(hour int, b *flowrec.Batch) {
				sums := &day.other
				if workday && calendar.WorkingHours(hour) {
					sums = &day.work
				}
				det.SplitBatchSums(sums, b)
			},
			done: func() any { return day },
		}
	}, nil
}}

// runFig10 reproduces Figure 10: VPN traffic at the IXP-CE identified by
// well-known ports vs by *vpn* domains, for the base, March and April
// weeks.
func runFig10(env *Env) (*Result, error) {
	res := newResult("fig10", "VPN traffic at the IXP-CE (port- vs domain-identified)")
	vpn, err := env.Data.VPN(synth.IXPCE)
	if err != nil {
		return nil, err
	}

	// Each week's working-hours VPN volume per method, as exact sums.
	weeks := calendar.AppWeeksIXP()
	work := make([]struct{ port, domain uint64 }, len(weeks))
	for _, p := range env.parts[0] {
		w, day := &work[weekOf(weeks, p.day())], p.v.(*vpnDay)
		w.port += day.work[vpndetect.ByPort]
		w.domain += day.work[vpndetect.ByDomain]
	}

	table := Table{Title: "VPN volume per identification method (normalised to the base week, working hours of workdays)",
		Columns: []string{"week", "port-identified", "domain-identified"}}
	for i, w := range weeks {
		p := float64(work[i].port) / float64(work[0].port)
		d := float64(work[i].domain) / float64(work[0].domain)
		table.Rows = append(table.Rows, []string{w.Label, f2(p), f2(d)})
		res.Metrics[w.Label+"/port"] = p
		res.Metrics[w.Label+"/domain"] = d
	}
	res.addTable(table)
	res.Metrics["candidates"] = float64(vpn.Detector.Candidates())
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
	res.note("Workday volume from the base week to the online-lecturing week: %+.0f%%.", res.Metrics["workday-drop"]*100)
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
	res.note("Workday ingress/egress ratio: %.1f in the base week, %.1f once lecturing moves online.",
		res.Metrics["base-workday-ratio"], res.Metrics["online-workday-ratio"])
	return res, nil
}

// fig12Baseline is Figure 12's baseline day, February 27.
var fig12Baseline = time.Date(2020, 2, 27, 0, 0, 0, 0, time.UTC)

// fig12Days are the days Figure 12 samples from the baseline up to May 8:
// the baseline day, then Tuesdays, Thursdays and Saturdays.
func fig12Days() []time.Time {
	var days []time.Time
	for d := fig12Baseline; d.Before(time.Date(2020, 5, 8, 0, 0, 0, 0, time.UTC)); d = d.AddDate(0, 0, 1) {
		switch d.Weekday() {
		case time.Tuesday, time.Thursday, time.Saturday:
		default:
			if !d.Equal(fig12Baseline) {
				continue
			}
		}
		days = append(days, d)
	}
	return days
}

// eduCounts is Figure 12's reduction: a day's EDU connection counts per
// class and direction.
var eduCounts = &reduction{owner: "fig12", build: func(*Dataset) (reduceFunc, error) {
	return func(FlowKey) fold {
		day := new(appclass.EDUCounter)
		return fold{
			add:  func(_ int, b *flowrec.Batch) { day.AddBatch(b) },
			done: func() any { return day.Counts() },
		}
	}, nil
}}

// runFig12 reproduces Figure 12: daily connection counts relative to the
// February 27 baseline for the selected traffic categories. To keep the
// experiment affordable it samples three days per week across the 72-day
// window instead of every day.
func runFig12(env *Env) (*Result, error) {
	res := newResult("fig12", "EDU daily connection growth per traffic class")
	// Each sampled day's counts (eduCounts) under its own day, so nothing
	// adds into a day's shared counts.
	counts := make(edu.DailyCounts, len(env.parts[0]))
	for _, p := range env.parts[0] {
		counts[calendar.DayStart(p.day())] = p.v.(map[appclass.EDUClass]map[flowrec.Direction]int)
	}
	cats := append(edu.DefaultCategories(), edu.ExtraCategories()...)
	growth := edu.ConnectionGrowth(counts, fig12Baseline, cats)

	table := Table{Title: "Median daily connection growth after the state of emergency (relative to Feb 27)", Columns: []string{"category", "median growth"}}
	after := calendar.EDUClosure
	for _, c := range cats {
		m := growth.MedianGrowthAfter(c.Name, after)
		table.Rows = append(table.Rows, []string{c.Name, f2(m)})
		res.Metrics[c.Name] = m
	}
	res.addTable(table)
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
	// Figure 10's split of each day of the March week: its two parts tile
	// the day.
	var split struct{ port, domain uint64 }
	for _, p := range env.parts[0] {
		day := p.v.(*vpnDay)
		split.port += day.work[vpndetect.ByPort] + day.other[vpndetect.ByPort]
		split.domain += day.work[vpndetect.ByDomain] + day.other[vpndetect.ByDomain]
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
