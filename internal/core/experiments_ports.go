package core

import (
	"fmt"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/ports"
	"lockdown/internal/simd"
	"lockdown/internal/synth"
)

func init() {
	register(Experiment{ID: "fig7a", Artifact: "Figure 7a", Title: "ISP-CE top application ports across three weeks", Run: runFig7a})
	register(Experiment{ID: "fig7b", Artifact: "Figure 7b", Title: "IXP-CE top application ports across three weeks", Run: runFig7b})
	register(Experiment{ID: "tab1", Artifact: "Table 1", Title: "Application-class filter inventory", Run: runTab1})
	register(Experiment{ID: "fig8", Artifact: "Figure 8", Title: "IXP-SE gaming class: unique IPs and volume", Run: runFig8})
	register(Experiment{ID: "fig9", Artifact: "Figure 9", Title: "Application-class growth heatmaps for all vantage points", Run: runFig9})
}

// portWeekVolumes aggregates sampled flows of one week into mean hourly
// per-port volumes, split into workday and weekend hours (the number of
// workdays differs between the selected weeks because of the Easter
// holidays, so totals would not be comparable).
type portWeekVolumes struct {
	workday map[flowrec.PortProto]float64
	weekend map[flowrec.PortProto]float64
}

// portWeekPart is one scan chunk's partial aggregate: dense per-lane
// byte sums and row counts (lane k = topPorts[k]; the miss lane absorbs
// every other port and is dropped at materialisation), plus the hour
// counts needed for the mean. The byte sums accumulate as uint64 — a
// busy week's volume crosses 2^53, where float64 addition starts
// rounding and stops being associative, so integer accumulation is what
// makes the merge exact under every chunk grouping. The row counts carry
// the old map-key semantics: a port appears in the week's result iff a
// row on it was scanned, even at volume zero.
type portWeekPart struct {
	sums, weekendSums          [simd.Lanes]uint64
	cnt, weekendCnt            [simd.Lanes]uint64
	workdayHours, weekendHours int
}

func collectPortVolumes(env *Env, vp synth.VantagePoint, week calendar.Week, topPorts []flowrec.PortProto, tab *flowrec.PortLanes) (portWeekVolumes, error) {
	agg, err := ScanDays(env, calendar.Days(week.Start, week.End),
		func() *portWeekPart { return &portWeekPart{} },
		func(env *Env, p *portWeekPart, day time.Time) error {
			k := FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)}
			from, to := k.Hours()
			sums, cnt := &p.sums, &p.cnt
			if calendar.IsWorkday(day) {
				p.workdayHours += to - from
			} else {
				p.weekendHours += to - from
				sums, cnt = &p.weekendSums, &p.weekendCnt
			}
			b, err := env.batch(k)
			if err != nil {
				return err
			}
			var lanes [simd.Tile]uint8
			n := b.Len()
			for lo := 0; lo < n; lo += simd.Tile {
				hi := min(lo+simd.Tile, n)
				b.ServerPortLanes(tab, lo, hi, lanes[:hi-lo])
				simd.ScatterAddUint64(sums, lanes[:hi-lo], b.Bytes[lo:hi])
				simd.ScatterCount(cnt, lanes[:hi-lo])
			}
			return nil
		},
		func(dst, src *portWeekPart) *portWeekPart {
			for k := range dst.sums {
				dst.sums[k] += src.sums[k]
				dst.weekendSums[k] += src.weekendSums[k]
				dst.cnt[k] += src.cnt[k]
				dst.weekendCnt[k] += src.weekendCnt[k]
			}
			dst.workdayHours += src.workdayHours
			dst.weekendHours += src.weekendHours
			return dst
		})
	if err != nil {
		return portWeekVolumes{}, err
	}
	// Convert to float and normalise only after the full merge: the merged
	// sums are exact, so each float value is rounded exactly once.
	out := portWeekVolumes{
		workday: make(map[flowrec.PortProto]float64, len(topPorts)),
		weekend: make(map[flowrec.PortProto]float64, len(topPorts)),
	}
	for k, pp := range topPorts {
		if agg.cnt[k] > 0 {
			out.workday[pp] = float64(agg.sums[k]) / float64(agg.workdayHours)
		}
		if agg.weekendCnt[k] > 0 {
			out.weekend[pp] = float64(agg.weekendSums[k]) / float64(agg.weekendHours)
		}
	}
	return out, nil
}

func runPortExperiment(env *Env, id, title string, vp synth.VantagePoint, weeks []calendar.Week, topPorts []flowrec.PortProto) (*Result, error) {
	res := newResult(id, title)
	// One lane per tracked port, in topPorts order; every other port maps
	// to the miss lane past them.
	tab := flowrec.NewPortLanes(uint8(len(topPorts)))
	for k, p := range topPorts {
		tab.Set(p, uint8(k))
	}
	perWeek := make([]portWeekVolumes, len(weeks))
	for i, w := range weeks {
		var err error
		perWeek[i], err = collectPortVolumes(env, vp, w, topPorts, tab)
		if err != nil {
			return nil, err
		}
	}

	table := Table{
		Title:   "Per-port volume growth relative to the base week (workday hours)",
		Columns: []string{"port", "service", "stage1 workday", "stage2 workday", "stage1 weekend", "stage2 weekend"},
	}
	growth := func(m map[flowrec.PortProto]float64, base map[flowrec.PortProto]float64, p flowrec.PortProto) float64 {
		if base[p] == 0 {
			return 0
		}
		return m[p] / base[p]
	}
	for _, p := range topPorts {
		s1wd := growth(perWeek[1].workday, perWeek[0].workday, p)
		s2wd := growth(perWeek[2].workday, perWeek[0].workday, p)
		s1we := growth(perWeek[1].weekend, perWeek[0].weekend, p)
		s2we := growth(perWeek[2].weekend, perWeek[0].weekend, p)
		table.Rows = append(table.Rows, []string{p.String(), ports.Name(p), f2(s1wd), f2(s2wd), f2(s1we), f2(s2we)})
		res.Metrics[p.String()+"/stage1-workday"] = s1wd
		res.Metrics[p.String()+"/stage2-workday"] = s2wd
		res.Metrics[p.String()+"/stage1-weekend"] = s1we
	}
	res.addTable(table)
	return res, nil
}

func runFig7a(env *Env) (*Result, error) {
	res, err := runPortExperiment(env, "fig7a", "ISP-CE top ports (TCP/80 and TCP/443 omitted)", synth.ISPCE,
		calendar.AppWeeksISP(), ports.TopPortsISP())
	if err != nil {
		return nil, err
	}
	res.note("QUIC and the VPN/NAT-traversal ports grow on workdays; the Zoom connector port grows by an order of magnitude; TCP/8080 barely changes.")
	return res, nil
}

func runFig7b(env *Env) (*Result, error) {
	res, err := runPortExperiment(env, "fig7b", "IXP-CE top ports (TCP/80 and TCP/443 omitted)", synth.IXPCE,
		calendar.AppWeeksIXP(), ports.TopPortsIXP())
	if err != nil {
		return nil, err
	}
	res.note("UDP/3480 (Teams/Skype) and UDP/8801 (Zoom) surge during working hours; GRE/ESP tunnel traffic decreases after the lockdown.")
	return res, nil
}

// runTab1 reproduces Table 1: the filter inventory of the application
// classification.
func runTab1(*Env) (*Result, error) {
	res := newResult("tab1", "Application-class filters")
	c := appclass.NewDefault(nil)
	table := Table{Title: "Filters per application class", Columns: []string{"application class", "# of filters", "# of distinct ASNs", "# of distinct transport ports"}}
	for _, row := range c.Inventory() {
		table.Rows = append(table.Rows, []string{string(row.Class), fmt.Sprintf("%d", row.Filters), fmt.Sprintf("%d", row.DistinctASNs), fmt.Sprintf("%d", row.DistinctPorts)})
		res.Metrics[string(row.Class)+"/filters"] = float64(row.Filters)
	}
	res.addTable(table)
	res.Metrics["classes"] = float64(len(c.Inventory()))
	return res, nil
}

// runFig8 reproduces Figure 8: unique IP addresses and traffic volume of
// the gaming class at the IXP-SE, per calendar week 7-17, normalised to
// the observed minimum.
func runFig8(env *Env) (*Result, error) {
	res := newResult("fig8", "IXP-SE gaming: unique IPs and volume, weeks 7-17")
	start := time.Date(2020, 2, 10, 0, 0, 0, 0, time.UTC) // Monday of week 7
	end := time.Date(2020, 4, 27, 0, 0, 0, 0, time.UTC)   // end of week 17

	type weekAgg struct {
		volume  uint64
		uniques map[flowrec.Addr]bool
	}
	var days []time.Time
	for t := start; t.Before(end); t = t.AddDate(0, 0, 1) {
		days = append(days, t)
	}
	// Sharded scan over the 77 days of weeks 7-17, one day a chunk; an ISO
	// week holds whole days, and the per-week partials merge exactly
	// (uint64 volume sums, unique-IP set unions).
	byWeek, err := ShardedScan(env, len(days), 1,
		func(env *Env, lo, hi int) (map[int]*weekAgg, error) {
			part := make(map[int]*weekAgg)
			for _, t := range days[lo:hi] {
				b, err := env.componentFlowBatch(synth.IXPSE, "gaming", t)
				if err != nil {
					return nil, err
				}
				w := calendar.ISOWeek(t)
				agg, ok := part[w]
				if !ok {
					agg = &weekAgg{uniques: make(map[flowrec.Addr]bool)}
					part[w] = agg
				}
				for i := 0; i < b.Len(); i++ {
					agg.volume += b.Bytes[i]
					agg.uniques[b.DstIP[i]] = true // eyeball side
				}
			}
			return part, nil
		},
		func(dst, src map[int]*weekAgg) map[int]*weekAgg {
			for w, s := range src {
				agg, ok := dst[w]
				if !ok {
					dst[w] = s
					continue
				}
				agg.volume += s.volume
				for ip := range s.uniques {
					agg.uniques[ip] = true
				}
			}
			return dst
		})
	if err != nil {
		return nil, err
	}

	var minVol uint64
	minIPs := 0
	first := true
	for _, agg := range byWeek {
		if first || agg.volume < minVol {
			minVol = agg.volume
		}
		if first || len(agg.uniques) < minIPs {
			minIPs = len(agg.uniques)
		}
		first = false
	}
	table := Table{Title: "Gaming class per calendar week (normalised to minimum)", Columns: []string{"week", "unique IPs", "volume"}}
	for w := 7; w <= 17; w++ {
		agg, ok := byWeek[w]
		if !ok {
			continue
		}
		ips := float64(len(agg.uniques)) / float64(minIPs)
		vol := float64(agg.volume) / float64(minVol)
		table.Rows = append(table.Rows, []string{fmt.Sprintf("%d", w), f2(ips), f2(vol)})
		res.Metrics[fmt.Sprintf("week%d/ips", w)] = ips
		res.Metrics[fmt.Sprintf("week%d/volume", w)] = vol
	}
	res.addTable(table)

	// Outage: within the first lockdown week the daily volume plunges for
	// two days (March 16-17).
	outageSeries, err := env.Data.ClassSeries(synth.IXPSE, synth.ClassGaming, time.Date(2020, 3, 16, 0, 0, 0, 0, time.UTC), time.Date(2020, 3, 18, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, err
	}
	afterSeries, err := env.Data.ClassSeries(synth.IXPSE, synth.ClassGaming, time.Date(2020, 3, 19, 0, 0, 0, 0, time.UTC), time.Date(2020, 3, 21, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, err
	}
	res.Metrics["outage-ratio"] = outageSeries.Mean() / afterSeries.Mean()
	res.note("Unique IPs and volume rise steeply from week 10/11; the outage of a major gaming provider is visible in week 12 (volume at %.0f%% of the surrounding days).", res.Metrics["outage-ratio"]*100)
	return res, nil
}

// classGrowth is the condensed Figure 9 cell: relative growth of one
// application class between the base week and a later week, during working
// hours of workdays, clipped to the heatmap's colour range.
func classGrowth(base, stage map[appclass.Class]float64, cls appclass.Class) float64 {
	b := base[cls]
	if b == 0 {
		return 0
	}
	g := (stage[cls]/b - 1) * 100
	if g > 200 {
		g = 200
	}
	if g < -100 {
		g = -100
	}
	return g
}

// collectClassVolumes aggregates one week's sampled flows into per-class
// volumes, restricted to working hours of workdays (the paper removes the
// early-morning hours and the condensed comparison focuses on business
// hours, where the Figure 9 effects are strongest).
func collectClassVolumes(env *Env, vp synth.VantagePoint, clf *appclass.Classifier, week calendar.Week) (map[appclass.Class]float64, error) {
	// uint64 accumulation keeps the partial sums exact (a week of volume
	// crosses 2^53), so merging them in any chunk grouping is lossless;
	// the single uint64→float64 conversion happens after the full merge.
	sums, err := ScanDays(env, calendar.Days(week.Start, week.End),
		func() map[appclass.Class]uint64 { return make(map[appclass.Class]uint64) },
		func(env *Env, part map[appclass.Class]uint64, day time.Time) error {
			if !calendar.IsWorkday(day) {
				return nil
			}
			b, err := env.hours(FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)}, calendar.WorkStart, calendar.WorkEnd)
			if err != nil {
				return err
			}
			clf.VolumeByClassInto(part, b)
			return nil
		},
		func(dst, src map[appclass.Class]uint64) map[appclass.Class]uint64 {
			for cls, v := range src {
				dst[cls] += v
			}
			return dst
		})
	if err != nil {
		return nil, err
	}
	out := make(map[appclass.Class]float64, len(sums))
	for cls, v := range sums {
		out[cls] = float64(v)
	}
	return out, nil
}

// runFig9 reproduces Figure 9 in condensed form: per vantage point and
// application class, the working-hours growth of stage 1 and stage 2 over
// the base week, clipped to [-100%, +200%] like the heatmap colour scale.
func runFig9(env *Env) (*Result, error) {
	res := newResult("fig9", "Application-class growth (working hours, % vs base week)")
	clf := appclass.NewDefault(nil)
	vps := []struct {
		vp    synth.VantagePoint
		weeks []calendar.Week
	}{
		{synth.IXPCE, calendar.AppWeeksIXP()},
		{synth.IXPSE, calendar.AppWeeksIXP()},
		{synth.IXPUS, calendar.AppWeeksIXP()},
		{synth.ISPCE, calendar.AppWeeksISP()},
	}
	for _, entry := range vps {
		base, err := collectClassVolumes(env, entry.vp, clf, entry.weeks[0])
		if err != nil {
			return nil, err
		}
		stage1, err := collectClassVolumes(env, entry.vp, clf, entry.weeks[1])
		if err != nil {
			return nil, err
		}
		stage2, err := collectClassVolumes(env, entry.vp, clf, entry.weeks[2])
		if err != nil {
			return nil, err
		}

		table := Table{Title: fmt.Sprintf("%s: class growth in %% (clipped to [-100, 200])", entry.vp), Columns: []string{"class", "stage1 - base", "stage2 - base"}}
		for _, cls := range appclass.AllClasses() {
			g1 := classGrowth(base, stage1, cls)
			g2 := classGrowth(base, stage2, cls)
			table.Rows = append(table.Rows, []string{string(cls), f2(g1), f2(g2)})
			res.Metrics[string(entry.vp)+"/"+string(cls)+"/stage1"] = g1
			res.Metrics[string(entry.vp)+"/"+string(cls)+"/stage2"] = g2
		}
		res.addTable(table)
	}
	res.note("Web conferencing exceeds +200%% during business hours at every vantage point; messaging surges in Europe while email grows in the US; VoD and gaming grow strongly at the European IXPs but only moderately at the ISP.")
	return res, nil
}
