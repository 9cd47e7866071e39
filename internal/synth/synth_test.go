package synth

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// at evaluates a Response the way a generator does for a component that
// carries it as its Resp: compiled, on the built-in calendar.
func (r Response) at(t time.Time) float64 {
	var k compiler
	tl := k.response(&r)
	h := hourAt(t)
	return tl.at(h.ns, tl.peakFor(&h, h.weekend))
}

// patternShift evaluates the built-in shift's compiled blend weight at t.
func patternShift(t time.Time) float64 {
	var k compiler
	tl := k.response(lockdownShift(0))
	return tl.weight(t.UnixNano())
}

func TestResponseRampAndRetention(t *testing.T) {
	r := Response{Peak: 2.0, Retained: 0.5, PreRamp: 0.2}
	if got := r.at(date(2020, 1, 10)); math.Abs(got-1) > 1e-9 {
		t.Errorf("pre-outbreak multiplier = %v, want 1", got)
	}
	pre := r.at(date(2020, 3, 1))
	if pre <= 1 || pre >= 1.3 {
		t.Errorf("pre-lockdown multiplier = %v, want small build-up", pre)
	}
	peak := r.at(date(2020, 4, 1))
	if math.Abs(peak-2.0) > 1e-6 {
		t.Errorf("peak multiplier = %v, want 2.0", peak)
	}
	late := r.at(calendar.StudyEnd.Add(-time.Hour))
	if late >= peak || late <= 1.3 {
		t.Errorf("late multiplier = %v, want partial retention between 1.3 and %v", late, peak)
	}
}

func TestResponseWorkHoursAndWeekendPeaks(t *testing.T) {
	r := Response{Peak: 1.5, PeakWorkHours: 3.0, PeakWeekend: 1.1}
	peakDay := date(2020, 4, 1) // Wednesday, full effect
	if got := r.at(peakDay.Add(11 * time.Hour)); math.Abs(got-3.0) > 1e-6 {
		t.Errorf("working-hours multiplier = %v, want 3.0", got)
	}
	if got := r.at(peakDay.Add(21 * time.Hour)); math.Abs(got-1.5) > 1e-6 {
		t.Errorf("evening multiplier = %v, want 1.5", got)
	}
	sat := date(2020, 4, 4).Add(11 * time.Hour)
	if got := r.at(sat); math.Abs(got-1.1) > 1e-6 {
		t.Errorf("weekend multiplier = %v, want 1.1", got)
	}
}

func TestResponseDipAndOutage(t *testing.T) {
	r := Response{Peak: 1.5, Dip: 0.8}
	inDip := r.at(date(2020, 3, 25))
	noDip := Response{Peak: 1.5}.at(date(2020, 3, 25))
	if inDip >= noDip {
		t.Errorf("dip multiplier %v should be below undipped %v", inDip, noDip)
	}
	out := Response{Peak: 1.5, Outage: &Outage{Start: date(2020, 3, 16), End: date(2020, 3, 18), Residual: 0.25}}
	during := out.at(date(2020, 3, 16).Add(12 * time.Hour))
	after := out.at(date(2020, 3, 19).Add(12 * time.Hour))
	if during >= after/2 {
		t.Errorf("outage multiplier %v should be far below post-outage %v", during, after)
	}
}

func TestResponseDelayShiftsTimeline(t *testing.T) {
	eu := Response{Peak: 2.0}
	us := Response{Peak: 2.0, Delay: 8 * 24 * time.Hour}
	probe := date(2020, 3, 18)
	if us.at(probe) >= eu.at(probe) {
		t.Errorf("delayed response at %v (%v) should lag the EU response (%v)", probe, us.at(probe), eu.at(probe))
	}
}

func TestPatternShiftTimeline(t *testing.T) {
	if s := patternShift(date(2020, 1, 10)); s != 0 {
		t.Errorf("shift before outbreak = %v, want 0", s)
	}
	if s := patternShift(date(2020, 4, 1)); s != 1 {
		t.Errorf("shift at lockdown height = %v, want 1", s)
	}
	late := patternShift(calendar.StudyEnd.Add(-24 * time.Hour))
	if late >= 1 || late < 0.5 {
		t.Errorf("shift after relaxation = %v, want partial (0.5..1)", late)
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	for _, vp := range AllVantagePoints() {
		g, err := NewDefault(vp)
		if err != nil {
			t.Fatalf("%s: %v", vp, err)
		}
		if g.cfg.VP != vp {
			t.Errorf("the generator models %v, want %v", g.cfg.VP, vp)
		}
		if v := g.HourlyVolume(date(2020, 2, 19).Add(20 * time.Hour)); v <= 0 {
			t.Errorf("%s: zero baseline volume", vp)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{VP: "X"}); err == nil {
		t.Error("empty component list accepted")
	}
	cfg := DefaultConfig(ISPCE)
	cfg.Components[0].Name = cfg.Components[1].Name
	if _, err := New(cfg); err == nil {
		t.Error("duplicate component names accepted")
	}
	cfg = DefaultConfig(ISPCE)
	cfg.Components[0].SrcASNs = []uint32{4242424242}
	if _, err := New(cfg); err == nil {
		t.Error("unknown AS accepted")
	}
	cfg = DefaultConfig(ISPCE)
	cfg.Components[0].BaseGbps = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative base rate accepted")
	}
}

// weeklyGrowth returns the mean daily volume of the ISO week containing
// probe, normalised by the week-3 baseline.
func weeklyGrowth(g *Generator, probe time.Time) float64 {
	base := g.TotalSeries(date(2020, 1, 13), date(2020, 1, 20)).Mean()
	wk := calendar.DayStart(probe)
	wk = wk.AddDate(0, 0, -(int(wk.Weekday())+6)%7) // back to Monday
	cur := g.TotalSeries(wk, wk.AddDate(0, 0, 7)).Mean()
	return cur / base
}

func TestISPVolumeGrowthMatchesPaperShape(t *testing.T) {
	g := MustNewDefault(ISPCE)
	stage1 := weeklyGrowth(g, date(2020, 3, 25))
	stage3 := weeklyGrowth(g, date(2020, 5, 13))
	if stage1 < 1.12 || stage1 > 1.40 {
		t.Errorf("ISP-CE lockdown growth = %.3f, want roughly +15-35%%", stage1)
	}
	if stage3 < 1.01 || stage3 > 1.15 {
		t.Errorf("ISP-CE post-relaxation growth = %.3f, want a small residual (+1-15%%)", stage3)
	}
	if stage3 >= stage1 {
		t.Errorf("ISP-CE growth should recede after the relaxations (%.3f vs %.3f)", stage3, stage1)
	}
}

func TestIXPGrowthPersistsLongerThanISP(t *testing.T) {
	isp := MustNewDefault(ISPCE)
	ixp := MustNewDefault(IXPCE)
	ispLate := weeklyGrowth(isp, date(2020, 5, 13))
	ixpLate := weeklyGrowth(ixp, date(2020, 5, 13))
	if ixpLate <= ispLate {
		t.Errorf("IXP-CE late growth %.3f should exceed ISP-CE late growth %.3f", ixpLate, ispLate)
	}
	ixpPeak := weeklyGrowth(ixp, date(2020, 3, 25))
	if ixpPeak < 1.15 || ixpPeak > 1.6 {
		t.Errorf("IXP-CE lockdown growth = %.3f, want roughly +20-50%%", ixpPeak)
	}
}

func TestIXPUSGrowthIsDelayed(t *testing.T) {
	us := MustNewDefault(IXPUS)
	march := weeklyGrowth(us, date(2020, 3, 18))
	april := weeklyGrowth(us, date(2020, 4, 22))
	if march > 1.15 {
		t.Errorf("IXP-US growth in mid March = %.3f, should still be small", march)
	}
	if april <= march {
		t.Errorf("IXP-US April growth %.3f should exceed March growth %.3f", april, march)
	}
}

func TestRoamingCollapse(t *testing.T) {
	ipx := MustNewDefault(IPX)
	if g := weeklyGrowth(ipx, date(2020, 4, 22)); g > 0.7 {
		t.Errorf("roaming traffic growth = %.3f, want a collapse below 0.7", g)
	}
	mobile := MustNewDefault(Mobile)
	if g := weeklyGrowth(mobile, date(2020, 4, 22)); g < 0.8 || g > 1.05 {
		t.Errorf("mobile traffic growth = %.3f, want a slight decrease", g)
	}
}

func TestEDUWorkdayCollapseAndWeekendGrowth(t *testing.T) {
	g := MustNewDefault(EDU)
	baseTue := g.TotalSeries(date(2020, 3, 3), date(2020, 3, 4)).Total()   // Tuesday before closure
	lockTue := g.TotalSeries(date(2020, 4, 21), date(2020, 4, 22)).Total() // Tuesday during online lecturing
	drop := lockTue / baseTue
	if drop > 0.65 || drop < 0.3 {
		t.Errorf("EDU workday ratio = %.3f, want a 35-70%% drop (paper: up to -55%%)", drop)
	}
	baseSat := g.TotalSeries(date(2020, 2, 29), date(2020, 3, 1)).Total()
	lockSat := g.TotalSeries(date(2020, 4, 18), date(2020, 4, 19)).Total()
	if lockSat <= baseSat*0.95 {
		t.Errorf("EDU weekend volume should not collapse (ratio %.3f)", lockSat/baseSat)
	}
}

func TestEDUInOutRatioCollapses(t *testing.T) {
	g := MustNewDefault(EDU)
	ratioOn := func(day time.Time) float64 {
		in, out := g.DirectionSeries(day, day.AddDate(0, 0, 1))
		return in.Total() / out.Total()
	}
	before := ratioOn(date(2020, 3, 3))
	after := ratioOn(date(2020, 4, 21))
	if before < 5 {
		t.Errorf("pre-closure in/out ratio = %.2f, want strongly ingress-dominated (>5)", before)
	}
	if after > before/2.5 {
		t.Errorf("post-closure in/out ratio %.2f should be far below pre-closure %.2f", after, before)
	}
}

func TestHypergiantVsOtherGrowth(t *testing.T) {
	g := MustNewDefault(ISPCE)
	week := func(from time.Time) (hypergiant, other float64) {
		h, o := g.HypergiantSeries(from, from.AddDate(0, 0, 7))
		return h.Total(), o.Total()
	}
	baseH, baseO := week(date(2020, 2, 19))
	lockH, lockO := week(date(2020, 4, 22))
	if baseH <= baseO {
		t.Errorf("hypergiants should dominate baseline volume (%.0f vs %.0f)", baseH, baseO)
	}
	hgShare := baseH / (baseH + baseO)
	if hgShare < 0.55 || hgShare > 0.9 {
		t.Errorf("hypergiant baseline share = %.2f, want roughly 75%%", hgShare)
	}
	growthH := lockH / baseH
	growthO := lockO / baseO
	if growthO <= growthH {
		t.Errorf("other-AS growth %.3f should exceed hypergiant growth %.3f (Section 3.2)", growthO, growthH)
	}
}

func TestPatternBecomesWeekendLike(t *testing.T) {
	g := MustNewDefault(ISPCE)
	profileOf := func(day time.Time) []float64 {
		out := make([]float64, 24)
		for h := 0; h < 24; h++ {
			out[h] = g.HourlyVolume(day.Add(time.Duration(h) * time.Hour))
		}
		max := 0.0
		for _, v := range out {
			if v > max {
				max = v
			}
		}
		for i := range out {
			out[i] /= max
		}
		return out
	}
	feb := profileOf(date(2020, 2, 19)) // pre-lockdown Wednesday
	mar := profileOf(date(2020, 3, 25)) // lockdown Wednesday
	// Morning load (10:00) relative to the daily peak grows markedly.
	if mar[10] <= feb[10]+0.05 {
		t.Errorf("lockdown morning share %.3f should clearly exceed pre-lockdown %.3f", mar[10], feb[10])
	}
}

func TestClassSeriesAndClasses(t *testing.T) {
	g := MustNewDefault(IXPCE)
	classes := map[Class]bool{}
	for _, c := range g.cfg.Components {
		classes[c.Class] = true
	}
	if len(classes) < 10 {
		t.Fatalf("expected a rich class mix, got %d", len(classes))
	}
	conf := g.ClassSeries(ClassWebConf, date(2020, 2, 20), date(2020, 2, 21))
	if conf.Len() != 24 {
		t.Fatalf("ClassSeries length = %d, want 24", conf.Len())
	}
	if conf.Total() <= 0 {
		t.Error("web-conf class has no baseline volume")
	}
	// Unknown class yields a zero series of the same length.
	zero := g.ClassSeries(Class("nonexistent"), date(2020, 2, 20), date(2020, 2, 21))
	if zero.Total() != 0 {
		t.Error("unknown class should have zero volume")
	}
}

func TestWebConfGrowthExceeds200Percent(t *testing.T) {
	for _, vp := range []VantagePoint{ISPCE, IXPCE, IXPSE, IXPUS} {
		g := MustNewDefault(vp)
		base := g.ClassSeries(ClassWebConf, date(2020, 2, 20), date(2020, 2, 27))
		lock := g.ClassSeries(ClassWebConf, date(2020, 4, 22), date(2020, 4, 29))
		// Compare working-hour volumes (Wed 11:00) as the paper does.
		b := base.Values()[11]
		l := lock.Values()[11]
		if l/b < 2.5 {
			t.Errorf("%s: web-conf working-hour growth %.2fx, want > 2.5x (+200%% in Figure 9)", vp, l/b)
		}
	}
}

func TestVolumeDeterminism(t *testing.T) {
	a := MustNewDefault(IXPSE)
	b := MustNewDefault(IXPSE)
	probe := date(2020, 3, 25).Add(14 * time.Hour)
	if a.HourlyVolume(probe) != b.HourlyVolume(probe) {
		t.Error("volume model is not deterministic")
	}
	cfg := DefaultConfig(IXPSE)
	cfg.Seed = 999
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.HourlyVolume(probe) == c.HourlyVolume(probe) {
		t.Error("different seeds should perturb the noise term")
	}
}

func TestFlowSamplingConsistency(t *testing.T) {
	g := MustNewDefault(ISPCE)
	probe := date(2020, 3, 25).Add(20 * time.Hour)
	flows := g.FlowsForHourBatch(probe).Records()
	if len(flows) == 0 {
		t.Fatal("no flows sampled")
	}
	again := g.FlowsForHourBatch(probe).Records()
	if len(flows) != len(again) {
		t.Fatalf("sampling not deterministic: %d vs %d", len(flows), len(again))
	}
	var sum float64
	validPorts := make(map[flowrec.PortProto]bool)
	for _, c := range g.cfg.Components {
		for _, p := range c.Ports {
			validPorts[p] = true
		}
	}
	for i, f := range flows {
		if f != again[i] {
			t.Fatal("sampling not deterministic at record level")
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if !validPorts[flowrec.PortProto{Proto: f.Proto, Port: f.SrcPort}] &&
			f.Proto != flowrec.ProtoGRE && f.Proto != flowrec.ProtoESP {
			t.Errorf("record %d uses unexpected server port %s/%d", i, f.Proto, f.SrcPort)
		}
		if f.Start.Before(probe) || !f.Start.Before(probe.Add(time.Hour)) {
			t.Errorf("record %d starts outside its hour", i)
		}
		sum += float64(f.Bytes)
	}
	model := g.HourlyVolume(probe)
	if sum < model*0.5 || sum > model*1.5 {
		t.Errorf("sampled bytes %.3g deviate too far from modelled volume %.3g", sum, model)
	}
}

func TestFlowScaleReducesRecordCount(t *testing.T) {
	cfg := DefaultConfig(ISPCE)
	cfg.FlowScale = 0.25
	small, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := MustNewDefault(ISPCE)
	probe := date(2020, 3, 25).Add(20 * time.Hour)
	if len(small.FlowsForHourBatch(probe).Records()) >= len(full.FlowsForHourBatch(probe).Records()) {
		t.Error("FlowScale < 1 should reduce the number of sampled flows")
	}
}

func TestEDUConnectionGrowthByClass(t *testing.T) {
	g := MustNewDefault(EDU)
	countIn := func(name string, day time.Time) int {
		n := 0
		for h := 0; h < 24; h++ {
			n += len(g.HourBatch(day.Add(time.Duration(h)*time.Hour), name, flowrec.AllColumns).Records())
		}
		return n
	}
	base := date(2020, 3, 3)  // pre-closure Tuesday
	lock := date(2020, 4, 21) // online-lecturing Tuesday
	vpnGrowth := float64(countIn("incoming-vpn", lock)) / float64(countIn("incoming-vpn", base))
	sshGrowth := float64(countIn("incoming-ssh", lock)) / float64(countIn("incoming-ssh", base))
	campusGrowth := float64(countIn("campus-downloads", lock)) / float64(countIn("campus-downloads", base))
	if vpnGrowth < 2.5 {
		t.Errorf("EDU incoming VPN connection growth = %.2fx, want > 2.5x (paper: 4.8x)", vpnGrowth)
	}
	if sshGrowth < vpnGrowth {
		t.Errorf("EDU SSH growth %.2fx should exceed VPN growth %.2fx (paper: 9.1x vs 4.8x)", sshGrowth, vpnGrowth)
	}
	if campusGrowth > 0.7 {
		t.Errorf("EDU outgoing campus connections growth = %.2fx, want a collapse below 0.7x", campusGrowth)
	}
}

func TestGamingOutageVisibleAtIXPSE(t *testing.T) {
	g := MustNewDefault(IXPSE)
	during := g.ClassSeries(ClassGaming, date(2020, 3, 16), date(2020, 3, 18)).Mean()
	after := g.ClassSeries(ClassGaming, date(2020, 3, 19), date(2020, 3, 21)).Mean()
	if during >= after*0.6 {
		t.Errorf("gaming outage volume %.3g should be well below the post-outage level %.3g", during, after)
	}
}

func TestMemberUtilizationShiftsRight(t *testing.T) {
	g := MustNewDefault(IXPCE)
	base := g.MemberUtilization(date(2020, 2, 19))
	stage2 := g.MemberUtilization(date(2020, 4, 22))
	if len(base) == 0 || len(base) != len(stage2) {
		t.Fatalf("member stats sizes: %d vs %d", len(base), len(stage2))
	}
	meanAvg := func(s []MemberLinkStats) float64 {
		var sum float64
		for _, m := range s {
			sum += m.Avg
		}
		return sum / float64(len(s))
	}
	if meanAvg(stage2) <= meanAvg(base) {
		t.Errorf("stage-2 mean utilisation %.3f should exceed base %.3f", meanAvg(stage2), meanAvg(base))
	}
	for _, m := range base {
		if m.Min < 0 || m.Max > 1 || m.Min > m.Avg || m.Avg > m.Max {
			t.Fatalf("inconsistent member stats: %+v", m)
		}
		if m.CapacityGbps <= 0 {
			t.Fatalf("member %d has no capacity", m.Member)
		}
	}
	// Non-IXP vantage points have no member model.
	if MustNewDefault(ISPCE).MemberUtilization(date(2020, 2, 19)) != nil {
		t.Error("ISP vantage point should not report member utilisation")
	}
}

func TestASVolumesAttribution(t *testing.T) {
	g := MustNewDefault(ISPCE)
	probe := date(2020, 2, 19).Add(20 * time.Hour)
	vols := g.ASVolumeBetween(probe, probe.Add(time.Hour))
	if len(vols) < 20 {
		t.Fatalf("expected attribution across many ASes, got %d", len(vols))
	}
	var total float64
	for asn, v := range vols {
		if v.Total < 0 || v.Residential < 0 || v.Residential > v.Total+1e-6 {
			t.Fatalf("AS%d has inconsistent attribution %+v", asn, v)
		}
		total += v.Total
	}
	direct := g.HourlyVolume(probe)
	if math.Abs(total-direct)/direct > 1e-6 {
		t.Errorf("per-AS attribution %.4g does not sum to the hourly volume %.4g", total, direct)
	}
}

func TestVPNGatewayPinning(t *testing.T) {
	g := MustNewDefault(IXPCE)
	gw, err := g.Registry().AddrFor(64801, 7)
	if err != nil {
		t.Fatal(err)
	}
	g.SetVPNGateways([]netip.Addr{gw})
	probe := date(2020, 4, 22).Add(11 * time.Hour)
	flows := g.HourBatch(probe, "vpn-tls", flowrec.AllColumns).Records()
	if len(flows) == 0 {
		t.Fatal("no vpn-tls flows sampled")
	}
	for _, f := range flows {
		if f.SrcIP != gw {
			t.Fatalf("vpn-tls flow not pinned to the gateway: %v", f.SrcIP)
		}
	}
}

// BenchmarkTotalSeries builds one vantage point's hourly total-volume
// series over the study window, as core.Dataset.Series does once per
// vantage point: the series header, its name and one pre-sized point
// array are the allocations, so a series that grew by appending would
// show up as more.
func BenchmarkTotalSeries(b *testing.B) {
	g := MustNewDefault(ISPCE)
	b.ReportAllocs()
	for b.Loop() {
		g.TotalSeries(calendar.StudyStart, calendar.StudyEnd)
	}
}
