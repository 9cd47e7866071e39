package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/ports"
	"lockdown/internal/simd"
	"lockdown/internal/synth"
)

func init() {
	register(Experiment{ID: "fig7a", Artifact: "Figure 7a", Title: "ISP-CE top application ports across three weeks", Run: runFig7a, reads: []dayRead{
		{kind: KindFlows, vp: synth.ISPCE, days: weekDays(calendar.AppWeeksISP(), false), by: ispPortLanes},
	}, claims: []claim{
		{"§4", "ISP-CE QUIC (UDP/443) workday traffic +30-80%", "UDP/443/stage1-workday", "", 1.2, 2.2},
		{"§4", "ISP-CE NAT traversal (UDP/4500) grows on workdays", "UDP/4500/stage1-workday", "", 1.3, inf},
		{"§4", "ISP-CE NAT traversal grows less on weekends than on workdays", "UDP/4500/stage1-workday", "UDP/4500/stage1-weekend", 0.002, inf},
		{"§4", "ISP-CE TCP/8080 barely changes", "TCP/8080/stage1-workday", "", 0.85, 1.25},
		{"§4", "ISP-CE Zoom (UDP/8801) at least doubles by April (paper: an order of magnitude)", "UDP/8801/stage2-workday", "", 2, inf},
	}})
	register(Experiment{ID: "fig7b", Artifact: "Figure 7b", Title: "IXP-CE top application ports across three weeks", Run: runFig7b, reads: []dayRead{
		{kind: KindFlows, vp: synth.IXPCE, days: weekDays(calendar.AppWeeksIXP(), false), by: ixpPortLanes},
	}, claims: []claim{
		{"§4", "IXP-CE Teams/Skype (UDP/3480) surges during working hours", "UDP/3480/stage1-workday", "", 1.8, inf},
		{"§4", "IXP-CE Zoom (UDP/8801) surges during working hours", "UDP/8801/stage1-workday", "", 1.8, inf},
		{"§4", "IXP-CE NAT traversal (UDP/4500) grows on workdays", "UDP/4500/stage1-workday", "", 1.15, inf},
		{"§4", "IXP-CE GRE decreases after the lockdown", "GRE/stage2-workday", "", -inf, 0.998},
		{"§4", "IXP-CE ESP decreases after the lockdown", "ESP/stage2-workday", "", -inf, 0.998},
	}})
	register(Experiment{ID: "tab1", Artifact: "Table 1", Title: "Application-class filter inventory", Run: runTab1, claims: []claim{
		{"§5", "nine application classes", "classes", "", 9, 9},
		{"§5", "the gaming class has several filters", "gaming/filters", "", 5, inf},
	}})
	register(Experiment{ID: "fig8", Artifact: "Figure 8", Title: "IXP-SE gaming class: unique IPs and volume", Run: runFig8, reads: []dayRead{
		{kind: KindComponentFlows, vp: synth.IXPSE, name: "gaming", days: fig8Days(), by: gamingIPs},
	}, claims: []claim{
		{"§5", "gaming unique IPs roughly double by week 13", "week13/ips", "", 1.7, 2.6},
		{"§5", "gaming volume roughly doubles by week 13", "week13/volume", "", 1.7, 2.6},
		{"§5", "gaming unique IPs rise from week 8 to week 14", "week14/ips", "week8/ips", 0.002, inf},
		{"§5", "a major gaming provider's outage shows in week 12", "outage-ratio", "", -inf, 0.6},
	}})
	register(Experiment{ID: "fig9", Artifact: "Figure 9", Title: "Application-class growth heatmaps for all vantage points", Run: runFig9, reads: fig9Reads(), claims: []claim{
		{"§5", "IXP-CE web conferencing ≥ +150% (paper: > +200%)", "IXP-CE/Web conf/stage1", "", 150, inf},
		{"§5", "IXP-SE web conferencing ≥ +150% (paper: > +200%)", "IXP-SE/Web conf/stage1", "", 150, inf},
		{"§5", "IXP-US web conferencing ≥ +150% (paper: > +200%)", "IXP-US/Web conf/stage1", "", 150, inf},
		{"§5", "ISP-CE web conferencing ≥ +150% (paper: > +200%)", "ISP-CE/Web conf/stage1", "", 150, inf},
		{"§5", "messaging surges at the IXP-CE", "IXP-CE/messaging/stage1", "", 100, inf},
		{"§5", "messaging grows less in the US than in Europe", "IXP-CE/messaging/stage1", "IXP-US/messaging/stage1", 0.002, inf},
		{"§5", "email grows more in the US than in Europe", "IXP-US/email/stage1", "IXP-CE/email/stage1", 0.002, inf},
		{"§5", "VoD grows strongly at the IXP-CE", "IXP-CE/VoD/stage1", "", 40, inf},
		{"§5", "VoD grows less at the ISP-CE than at the IXP-CE", "IXP-CE/VoD/stage1", "ISP-CE/VoD/stage1", 0.002, inf},
		{"§5", "gaming grows less at the ISP-CE than at the IXP-CE", "IXP-CE/gaming/stage1", "ISP-CE/gaming/stage1", 0.002, inf},
		{"§5", "US educational traffic decreases", "IXP-US/educational/stage1", "", -inf, -0.002},
		{"§5", "the IXP-CE social-media surge flattens by stage 2", "IXP-CE/social media/stage1", "IXP-CE/social media/stage2", 0.002, inf},
	}})
}

// portWeekVolumes aggregates sampled flows of one week into mean hourly
// per-port volumes, split into workday and weekend hours (the number of
// workdays differs between the selected weeks because of the Easter
// holidays, so totals would not be comparable).
type portWeekVolumes struct {
	workday map[flowrec.PortProto]float64
	weekend map[flowrec.PortProto]float64
}

// portDay is the port reduction of one day (portLanes): dense per-lane
// byte sums and row counts, lane k = topPorts[k], and the miss lane that
// absorbs every other port and is dropped at materialisation. The byte
// sums accumulate as uint64 — a busy week's volume crosses 2^53, where
// float64 addition starts rounding and stops being associative, so
// integer accumulation is what makes every merge of days exact. The row
// counts carry the old map-key semantics: a port appears in the week's
// result iff a row on it was scanned, even at volume zero.
type portDay struct {
	sums, cnt [simd.Lanes]uint64
}

func (p *portDay) add(o *portDay) {
	for k := range p.sums {
		p.sums[k] += o.sums[k]
		p.cnt[k] += o.cnt[k]
	}
}

// The port reductions of Figures 7a and 7b; Figure 9 shares their days.
var (
	ispPortLanes = portLanes("fig7a", ports.TopPortsISP())
	ixpPortLanes = portLanes("fig7b", ports.TopPortsIXP())
)

// portLanes is the reduction of a day into a portDay of the given ports:
// one lane per tracked port, in topPorts order, and every other port on
// the miss lane past them.
func portLanes(owner string, topPorts []flowrec.PortProto) *reduction {
	return &reduction{owner: owner, build: func(*Dataset) (reduceFunc, error) {
		tab := flowrec.NewPortLanes(uint8(len(topPorts)))
		for k, p := range topPorts {
			tab.Set(p, uint8(k))
		}
		return func(FlowKey) fold {
			day := new(portDay)
			return fold{
				add: func(_ int, b *flowrec.Batch) {
					var lanes [simd.Tile]uint8
					n := b.Len()
					for lo := 0; lo < n; lo += simd.Tile {
						hi := min(lo+simd.Tile, n)
						b.ServerPortLanes(tab, lo, hi, lanes[:hi-lo])
						simd.ScatterAddUint64(&day.sums, lanes[:hi-lo], b.Bytes[lo:hi])
						simd.ScatterCount(&day.cnt, lanes[:hi-lo])
					}
				},
				done: func() any { return day },
			}
		}, nil
	}}
}

// portWeekPart is one week's fold of the port reductions: those of its
// workdays and of its weekend days, plus the hour counts needed for the
// mean.
type portWeekPart struct {
	workday, weekend           portDay
	workdayHours, weekendHours int
}

// runPortExperiment folds the port reductions of the experiment's one
// read, the days of weeks, per week and into workdays and weekend days.
func runPortExperiment(env *Env, id, title string, weeks []calendar.Week, topPorts []flowrec.PortProto) (*Result, error) {
	res := newResult(id, title)
	agg := make([]portWeekPart, len(weeks))
	for _, p := range env.parts[0] {
		w := &agg[weekOf(weeks, p.day())]
		from, to := p.key.Hours()
		dst := &w.workday
		if calendar.IsWorkday(p.day()) {
			w.workdayHours += to - from
		} else {
			w.weekendHours += to - from
			dst = &w.weekend
		}
		dst.add(p.v.(*portDay))
	}
	// Convert to float and normalise only after the full fold: the sums
	// are exact, so each float value is rounded exactly once.
	perWeek := make([]portWeekVolumes, len(weeks))
	for i, a := range agg {
		perWeek[i] = portWeekVolumes{
			workday: make(map[flowrec.PortProto]float64, len(topPorts)),
			weekend: make(map[flowrec.PortProto]float64, len(topPorts)),
		}
		for k, pp := range topPorts {
			if a.workday.cnt[k] > 0 {
				perWeek[i].workday[pp] = float64(a.workday.sums[k]) / float64(a.workdayHours)
			}
			if a.weekend.cnt[k] > 0 {
				perWeek[i].weekend[pp] = float64(a.weekend.sums[k]) / float64(a.weekendHours)
			}
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
	return runPortExperiment(env, "fig7a", "ISP-CE top ports (TCP/80 and TCP/443 omitted)",
		calendar.AppWeeksISP(), ports.TopPortsISP())
}

func runFig7b(env *Env) (*Result, error) {
	return runPortExperiment(env, "fig7b", "IXP-CE top ports (TCP/80 and TCP/443 omitted)",
		calendar.AppWeeksIXP(), ports.TopPortsIXP())
}

// runTab1 reproduces Table 1: the filter inventory of the application
// classification.
func runTab1(*Env) (*Result, error) {
	res := newResult("tab1", "Application-class filters")
	c := defaultClassifier()
	table := Table{Title: "Filters per application class", Columns: []string{"application class", "# of filters", "# of distinct ASNs", "# of distinct transport ports"}}
	for _, row := range c.Inventory() {
		table.Rows = append(table.Rows, []string{string(row.Class), fmt.Sprintf("%d", row.Filters), fmt.Sprintf("%d", row.DistinctASNs), fmt.Sprintf("%d", row.DistinctPorts)})
		res.Metrics[string(row.Class)+"/filters"] = float64(row.Filters)
	}
	res.addTable(table)
	res.Metrics["classes"] = float64(len(c.Inventory()))
	return res, nil
}

// fig8Days are the days of calendar weeks 7-17, Monday February 10 to
// Sunday April 26.
func fig8Days() []time.Time {
	return calendar.Days(time.Date(2020, 2, 10, 0, 0, 0, 0, time.UTC), time.Date(2020, 4, 27, 0, 0, 0, 0, time.UTC))
}

// gamingDay is Figure 8's reduction of a day (gamingIPs): the gaming
// component's volume, as an exact uint64 sum, and its unique eyeball
// addresses as big-endian integers, sorted and without duplicates — four
// bytes an address, so a day's set costs what its addresses do and two
// sets merge in one pass. Figure 8 needs only the sets' sizes and unions,
// so the integers are never turned back into addresses.
type gamingDay struct {
	volume uint64
	ips    []uint32
}

// gamingIPs folds an IXP-SE component-flows/gaming day into a gamingDay:
// it sums the volume and collects the eyeball addresses piece by piece,
// and sorts and compacts them once, at the end.
var gamingIPs = &reduction{owner: "fig8", build: func(*Dataset) (reduceFunc, error) {
	return func(FlowKey) fold {
		day := new(gamingDay)
		var keys []uint32
		return fold{
			add: func(_ int, b *flowrec.Batch) {
				for _, a := range b.DstIP { // eyeball side
					keys = append(keys, binary.BigEndian.Uint32(a[:]))
				}
				for _, v := range b.Bytes {
					day.volume += v
				}
			},
			done: func() any {
				slices.Sort(keys)
				day.ips = slices.Clone(slices.Compact(keys)) // the set alone outlives the fold
				return day
			},
		}
	}, nil
}}

// unionAddrs returns the sorted union of the sorted sets a and b in a new
// slice; neither argument is written.
func unionAddrs(a, b []uint32) []uint32 {
	out := make([]uint32, 0, max(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// runFig8 reproduces Figure 8: unique IP addresses and traffic volume of
// the gaming class at the IXP-SE, per calendar week 7-17, normalised to
// the observed minimum.
func runFig8(env *Env) (*Result, error) {
	res := newResult("fig8", "IXP-SE gaming: unique IPs and volume, weeks 7-17")
	// The 77 days of weeks 7-17 fold into their ISO weeks: uint64 volume
	// sums and unique-IP set unions, which build a new set and never write
	// a day's shared one.
	byWeek := make(map[int]gamingDay)
	for _, p := range env.parts[0] {
		w, day := calendar.ISOWeek(p.day()), *p.v.(*gamingDay)
		if agg, ok := byWeek[w]; ok {
			day.volume += agg.volume
			day.ips = unionAddrs(agg.ips, day.ips)
		}
		byWeek[w] = day
	}

	var minVol uint64
	minIPs := 0
	first := true
	for _, agg := range byWeek {
		if first || agg.volume < minVol {
			minVol = agg.volume
		}
		if first || len(agg.ips) < minIPs {
			minIPs = len(agg.ips)
		}
		first = false
	}
	table := Table{Title: "Gaming class per calendar week (normalised to minimum)", Columns: []string{"week", "unique IPs", "volume"}}
	for w := 7; w <= 17; w++ {
		agg, ok := byWeek[w]
		if !ok {
			continue
		}
		ips := float64(len(agg.ips)) / float64(minIPs)
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
	res.note("Week-12 outage: gaming volume at %.0f%% of the surrounding days.", res.Metrics["outage-ratio"]*100)
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

// defaultClassifier is Table 1's classifier, built once per process:
// Table 1 lists its filters and Figure 9's reduction classifies with it.
// It is read-only, and its compiled tables are megabytes; two of them
// alive at once raised the peak RSS of a serial suite run by a sixth.
var defaultClassifier = sync.OnceValue(func() *appclass.Classifier { return appclass.NewDefault(nil) })

// classVolumes is Figure 9's reduction: a day's volume per application
// class over the working hours, as exact uint64 sums (a week of volume
// crosses 2^53), which every merge of days keeps exact. It folds the
// pieces of the working hours and skips the others.
var classVolumes = &reduction{owner: "fig9", hours: [2]int{calendar.WorkStart, calendar.WorkEnd}, build: func(*Dataset) (reduceFunc, error) {
	clf := defaultClassifier()
	return func(FlowKey) fold {
		sums := make(map[appclass.Class]uint64)
		return fold{
			add: func(hour int, b *flowrec.Batch) {
				if calendar.WorkingHours(hour) {
					clf.VolumeByClassInto(sums, b)
				}
			},
			done: func() any { return sums },
		}
	}, nil
}}

// fig9VPs are Figure 9's vantage points in table order, with the weeks
// each compares; its reads, the workdays of those weeks, follow the order.
var fig9VPs = []struct {
	vp    synth.VantagePoint
	weeks []calendar.Week
}{
	{synth.IXPCE, calendar.AppWeeksIXP()},
	{synth.IXPSE, calendar.AppWeeksIXP()},
	{synth.IXPUS, calendar.AppWeeksIXP()},
	{synth.ISPCE, calendar.AppWeeksISP()},
}

func fig9Reads() []dayRead {
	reads := make([]dayRead, len(fig9VPs))
	for i, e := range fig9VPs {
		reads[i] = dayRead{kind: KindFlows, vp: e.vp, days: weekDays(e.weeks, true), by: classVolumes}
	}
	return reads
}

// classWeekVolumes folds the class reductions of one vantage point's
// workdays into per-class volumes for each of weeks, restricted to working
// hours of workdays (the paper removes the early-morning hours and the
// condensed comparison focuses on business hours, where the Figure 9
// effects are strongest).
func classWeekVolumes(parts []dayPart, weeks []calendar.Week) []map[appclass.Class]float64 {
	sums := make([]map[appclass.Class]uint64, len(weeks))
	for i := range sums {
		sums[i] = make(map[appclass.Class]uint64)
	}
	for _, p := range parts {
		dst := sums[weekOf(weeks, p.day())]
		for cls, n := range p.v.(map[appclass.Class]uint64) {
			dst[cls] += n
		}
	}
	// The single uint64→float64 conversion happens after the full fold.
	out := make([]map[appclass.Class]float64, len(weeks))
	for i, s := range sums {
		out[i] = make(map[appclass.Class]float64, len(s))
		for cls, v := range s {
			out[i][cls] = float64(v)
		}
	}
	return out
}

// runFig9 reproduces Figure 9 in condensed form: per vantage point and
// application class, the working-hours growth of stage 1 and stage 2 over
// the base week, clipped to [-100%, +200%] like the heatmap colour scale.
func runFig9(env *Env) (*Result, error) {
	res := newResult("fig9", "Application-class growth (working hours, % vs base week)")
	for i, entry := range fig9VPs {
		vols := classWeekVolumes(env.parts[i], entry.weeks)
		base, stage1, stage2 := vols[0], vols[1], vols[2]

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
	return res, nil
}
