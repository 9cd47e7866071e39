package core

import (
	"strings"
	"testing"
	"time"

	"lockdown/internal/synth"
)

// quick returns cheap options for flow-heavy experiments; all assertions
// are on relative quantities, which are insensitive to the sampling
// density.
func quick() Options { return Options{FlowScale: 0.15} }

func run(t *testing.T, id string, opts Options) *Result {
	t.Helper()
	res, err := Run(id, opts)
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID = %q, want %q", res.ID, id)
	}
	if len(res.Tables) == 0 {
		t.Fatalf("experiment %s produced no tables", id)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	wanted := []string{
		"fig1", "fig2a", "fig2bc", "fig3a", "fig3b", "fig4", "fig5", "fig6",
		"fig7a", "fig7b", "tab1", "fig8", "fig9", "fig10", "fig11a", "fig11b",
		"fig12", "tab2", "appB", "ablation-vpn", "ablation-binsize",
	}
	for _, id := range wanted {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(wanted) {
		t.Errorf("registry has %d experiments, want at least %d", len(All()), len(wanted))
	}
	for _, e := range All() {
		if e.Artifact == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", e.ID)
		}
	}
	if _, err := Run("no-such-figure", quick()); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestPaperOrderListsEveryExperiment: All walks paperOrder alone, so an
// experiment registered but not listed there would vanish from every
// command, and one listed twice would run twice.
func TestPaperOrderListsEveryExperiment(t *testing.T) {
	listed := map[string]int{}
	for _, id := range paperOrder {
		listed[id]++
		if _, ok := registry[id]; !ok {
			t.Errorf("paperOrder lists %q, which is not registered", id)
		}
	}
	for id := range registry {
		if listed[id] != 1 {
			t.Errorf("paperOrder lists %q %d times, want once", id, listed[id])
		}
	}
}

func TestFig1WeeklyGrowthShapes(t *testing.T) {
	res := run(t, "fig1", quick())
	isp13 := res.Metric("ISP-CE/week13")
	if isp13 < 1.10 || isp13 > 1.40 {
		t.Errorf("ISP-CE week 13 growth = %.2f, want +10-40%%", isp13)
	}
	ixp13 := res.Metric("IXP-CE/week13")
	if ixp13 < isp13 {
		t.Errorf("IXP-CE week-13 growth %.2f should be at least the ISP's %.2f", ixp13, isp13)
	}
	// The roaming exchange collapses; the mobile network dips slightly.
	if res.Metric("IPX/week17") > 0.8 {
		t.Errorf("roaming week-17 level = %.2f, want a collapse", res.Metric("IPX/week17"))
	}
	if m := res.Metric("MOBILE/week13"); m < 0.8 || m > 1.05 {
		t.Errorf("mobile week-13 level = %.2f, want a slight decrease", m)
	}
	// The US IXP lags the European ones in week 13.
	if res.Metric("IXP-US/week13") >= res.Metric("IXP-CE/week13") {
		t.Error("IXP-US should lag IXP-CE in week 13")
	}
}

func TestFig2aPatternShift(t *testing.T) {
	res := run(t, "fig2a", quick())
	feb19 := res.Metric("feb19/morning-share")
	feb22 := res.Metric("feb22/morning-share")
	mar25 := res.Metric("mar25/morning-share")
	if feb22 <= feb19 {
		t.Errorf("weekend morning share %.2f should exceed the workday's %.2f", feb22, feb19)
	}
	if mar25 <= feb19+0.05 {
		t.Errorf("lockdown-workday morning share %.2f should clearly exceed the February workday's %.2f", mar25, feb19)
	}
}

func TestFig2bcClassificationFlips(t *testing.T) {
	res := run(t, "fig2bc", quick())
	for _, vp := range []string{"ISP-CE", "IXP-CE"} {
		pre := res.Metric(vp + "/pre-lockdown-workdays-weekendlike")
		post := res.Metric(vp + "/lockdown-workdays-weekendlike")
		if pre > 0.25 {
			t.Errorf("%s: %.0f%% of February workdays classified weekend-like, want few", vp, pre*100)
		}
		if post < 0.75 {
			t.Errorf("%s: only %.0f%% of April/May workdays classified weekend-like, want almost all", vp, post*100)
		}
	}
}

func TestFig3GrowthAndRecession(t *testing.T) {
	res := run(t, "fig3a", quick())
	s1 := res.Metric("stage1/mean")
	s3 := res.Metric("stage3/mean")
	if s1 < 1.12 || s1 > 1.40 {
		t.Errorf("ISP-CE stage-1 mean growth = %.2f, want roughly +15-35%%", s1)
	}
	if s3 >= s1 || s3 < 1.0 {
		t.Errorf("ISP-CE stage-3 growth %.2f should recede but stay above 1 (stage1 %.2f)", s3, s1)
	}
	// Peaks grow less than means: the valleys fill up.
	if res.Metric("stage1/peak") > res.Metric("stage1/mean")+0.05 {
		t.Errorf("peak growth %.2f should not exceed mean growth %.2f by much",
			res.Metric("stage1/peak"), res.Metric("stage1/mean"))
	}

	resB := run(t, "fig3b", quick())
	// Minimum levels rise at the IXPs.
	if resB.Metric("IXP-CE/stage2/min") <= 1.0 {
		t.Errorf("IXP-CE stage-2 minimum growth = %.2f, want > 1", resB.Metric("IXP-CE/stage2/min"))
	}
	// IXP-CE growth persists into stage 3 more than the ISP's.
	if resB.Metric("IXP-CE/stage3/mean") <= s3 {
		t.Errorf("IXP-CE stage-3 growth %.2f should exceed the ISP's %.2f", resB.Metric("IXP-CE/stage3/mean"), s3)
	}
	// The IXP-US increase lags in stage 1.
	if resB.Metric("IXP-US/stage1/mean") >= resB.Metric("IXP-CE/stage1/mean") {
		t.Error("IXP-US stage-1 growth should lag IXP-CE")
	}
}

func TestFig4OtherASesOutgrowHypergiants(t *testing.T) {
	res := run(t, "fig4", quick())
	for _, dp := range []string{"Workday 09:00-16:59", "Workday 17:00-24:00", "Weekend 09:00-16:59", "Weekend 17:00-24:00"} {
		if gap := res.Metric("gap-week15/" + dp); gap <= 0 {
			t.Errorf("%s: other-AS growth should exceed hypergiant growth in week 15 (gap %.3f)", dp, gap)
		}
	}
	if res.Metric("hg-week13/Workday 09:00-16:59") <= 1.05 {
		t.Error("hypergiant working-hours traffic should grow substantially by week 13")
	}
}

func TestFig5UtilizationShift(t *testing.T) {
	res := run(t, "fig5", quick())
	if res.Metric("shifted-right") != 1 {
		t.Error("stage-2 utilisation curves should be shifted right of the base week")
	}
	if res.Metric("median-shift") <= 0 {
		t.Errorf("median utilisation shift = %.3f, want positive", res.Metric("median-shift"))
	}
	if res.Metric("members") < 50 {
		t.Errorf("member count = %.0f, want a substantial membership", res.Metric("members"))
	}
}

func TestFig6ScatterCorrelation(t *testing.T) {
	res := run(t, "fig6", quick())
	if res.Metric("correlation") < 0.3 {
		t.Errorf("total/residential shift correlation = %.2f, want clearly positive", res.Metric("correlation"))
	}
	if res.Metric("ases") < 20 {
		t.Errorf("scatter holds %.0f ASes, want many", res.Metric("ases"))
	}
	if res.Metric("quadrant/total increase, residential increase") == 0 {
		t.Error("expected ASes with increases on both axes")
	}
	// The paper highlights enterprises that lose total traffic while
	// their residential traffic grows (top-left quadrant).
	if res.Metric("quadrant/total decrease, residential increase") == 0 {
		t.Error("expected ASes with a total decrease but residential increase")
	}
}

func TestFig7PortShifts(t *testing.T) {
	resA := run(t, "fig7a", quick())
	// QUIC grows 30-80% at the ISP.
	quic := resA.Metric("UDP/443/stage1-workday")
	if quic < 1.2 || quic > 2.2 {
		t.Errorf("ISP-CE QUIC workday growth = %.2f, want a clear increase (paper: +30-80%%)", quic)
	}
	// NAT traversal grows on workdays but barely on weekends.
	nat := resA.Metric("UDP/4500/stage1-workday")
	natWE := resA.Metric("UDP/4500/stage1-weekend")
	if nat < 1.3 {
		t.Errorf("ISP-CE UDP/4500 workday growth = %.2f, want a clear increase", nat)
	}
	if natWE >= nat {
		t.Errorf("UDP/4500 weekend growth %.2f should stay below workday growth %.2f", natWE, nat)
	}
	// The alternative HTTP port barely changes.
	if alt := resA.Metric("TCP/8080/stage1-workday"); alt < 0.85 || alt > 1.25 {
		t.Errorf("TCP/8080 growth = %.2f, want roughly flat", alt)
	}
	// Zoom connector grows dramatically at the ISP by April.
	if zoom := resA.Metric("UDP/8801/stage2-workday"); zoom < 2.0 {
		t.Errorf("UDP/8801 stage-2 growth = %.2f, want a dramatic increase", zoom)
	}

	resB := run(t, "fig7b", quick())
	// Teams/Skype STUN surges at the IXP-CE.
	if teams := resB.Metric("UDP/3480/stage1-workday"); teams < 1.8 {
		t.Errorf("IXP-CE UDP/3480 growth = %.2f, want a surge", teams)
	}
	// NAT traversal grows on workdays at the IXP as well.
	if nat := resB.Metric("UDP/4500/stage1-workday"); nat < 1.15 {
		t.Errorf("IXP-CE UDP/4500 workday growth = %.2f, want an increase", nat)
	}
	// GRE/ESP decrease at the IXP after the lockdown.
	if gre := resB.Metric("GRE/stage2-workday"); gre >= 1.0 {
		t.Errorf("IXP-CE GRE stage-2 growth = %.2f, want a decrease", gre)
	}
}

func TestTab1Inventory(t *testing.T) {
	res := run(t, "tab1", Options{})
	if res.Metric("classes") != 9 {
		t.Errorf("Table 1 has %.0f classes, want 9", res.Metric("classes"))
	}
	if res.Metric("gaming/filters") < 5 {
		t.Error("gaming class should have several filters")
	}
}

func TestFig8GamingSurge(t *testing.T) {
	res := run(t, "fig8", quick())
	// Weeks 13-15 (after the local lockdown) show clear growth over week 8.
	if res.Metric("week14/volume") < res.Metric("week8/volume")*1.4 {
		t.Errorf("gaming volume week 14 (%.2f) should clearly exceed week 8 (%.2f)",
			res.Metric("week14/volume"), res.Metric("week8/volume"))
	}
	if res.Metric("week14/ips") <= res.Metric("week8/ips") {
		t.Errorf("unique IPs week 14 (%.2f) should exceed week 8 (%.2f)",
			res.Metric("week14/ips"), res.Metric("week8/ips"))
	}
	if res.Metric("outage-ratio") > 0.6 {
		t.Errorf("outage ratio = %.2f, want a clear dip", res.Metric("outage-ratio"))
	}
}

func TestFig9ClassHeatmapClaims(t *testing.T) {
	res := run(t, "fig9", quick())
	// Web conferencing exceeds +200% (the clip value) everywhere.
	for _, vp := range []string{"IXP-CE", "IXP-SE", "IXP-US", "ISP-CE"} {
		if g := res.Metric(vp + "/Web conf/stage1"); g < 150 {
			t.Errorf("%s: web-conf stage-1 growth = %.0f%%, want > 150%%", vp, g)
		}
	}
	// Messaging surges in Europe but falls in the US, email the other way.
	if res.Metric("IXP-CE/messaging/stage1") < 100 {
		t.Errorf("IXP-CE messaging growth = %.0f%%, want > 100%%", res.Metric("IXP-CE/messaging/stage1"))
	}
	if res.Metric("IXP-US/messaging/stage1") >= res.Metric("IXP-CE/messaging/stage1") {
		t.Error("US messaging growth should stay below the European one")
	}
	if res.Metric("IXP-US/email/stage1") <= res.Metric("IXP-CE/email/stage1") {
		t.Error("US email growth should exceed the European one")
	}
	// VoD grows strongly at the European IXPs but only moderately at the ISP.
	if res.Metric("IXP-CE/VoD/stage1") < 40 {
		t.Errorf("IXP-CE VoD growth = %.0f%%, want strong growth", res.Metric("IXP-CE/VoD/stage1"))
	}
	if res.Metric("ISP-CE/VoD/stage1") >= res.Metric("IXP-CE/VoD/stage1") {
		t.Error("ISP VoD growth should stay below the IXP-CE's")
	}
	// US educational traffic decreases.
	if res.Metric("IXP-US/educational/stage1") >= 0 {
		t.Errorf("IXP-US educational growth = %.0f%%, want a decrease", res.Metric("IXP-US/educational/stage1"))
	}
	// Social media: the initial surge flattens by stage 2 at the IXPs.
	if res.Metric("IXP-CE/social media/stage2") >= res.Metric("IXP-CE/social media/stage1") {
		t.Error("social-media growth should flatten from stage 1 to stage 2")
	}
}

func TestFig10VPNShift(t *testing.T) {
	res := run(t, "fig10", quick())
	if d := res.Metric("stage1/domain"); d < 2.0 {
		t.Errorf("domain-identified VPN growth in March = %.2f, want > 2x (+200%% in the paper)", d)
	}
	if p := res.Metric("stage1/port"); p < 0.85 || p > 1.35 {
		t.Errorf("port-identified VPN growth in March = %.2f, want roughly flat", p)
	}
	if res.Metric("stage2/domain") >= res.Metric("stage1/domain") {
		t.Error("domain-identified VPN traffic should recede from March to April")
	}
	if res.Metric("candidates") == 0 {
		t.Error("no VPN candidate addresses derived")
	}
}

func TestFig11EDUVolumeAndRatio(t *testing.T) {
	resA := run(t, "fig11a", quick())
	drop := resA.Metric("workday-drop")
	if drop > -0.35 || drop < -0.75 {
		t.Errorf("EDU workday drop = %.2f, want between -35%% and -75%% (paper: up to -55%%)", drop)
	}
	resB := run(t, "fig11b", quick())
	base := resB.Metric("base-workday-ratio")
	online := resB.Metric("online-workday-ratio")
	if base < 5 {
		t.Errorf("EDU base in/out ratio = %.1f, want strongly ingress-dominated", base)
	}
	if online > base/2.5 {
		t.Errorf("EDU online-lecturing ratio %.1f should be far below the base %.1f", online, base)
	}
}

func TestFig12ConnectionGrowth(t *testing.T) {
	res := run(t, "fig12", quick())
	vpn := res.Metric("Eyeball ISPs (VPN, In)")
	ssh := res.Metric("SSH (In)")
	rdp := res.Metric("Remote desktop (In)")
	webIn := res.Metric("Eyeball ISPs (Web, In)")
	webOut := res.Metric("Hypergiants (Web, Out)")
	push := res.Metric("Push notifications (Out)")
	if vpn < 2.5 || rdp < vpn || ssh < rdp {
		t.Errorf("remote-access growth ordering unexpected: vpn %.1f, rdp %.1f, ssh %.1f (paper: 4.8x < 5.9x < 9.1x)", vpn, rdp, ssh)
	}
	if webIn < 1.3 {
		t.Errorf("incoming web connection growth = %.2f, want > 1.3x", webIn)
	}
	if webOut > 0.8 || push > 0.7 {
		t.Errorf("outgoing web (%.2f) and push (%.2f) connections should collapse", webOut, push)
	}
}

func TestTab2AndAppB(t *testing.T) {
	if res := run(t, "tab2", Options{}); res.Metric("hypergiants") != 15 {
		t.Errorf("Table 2 lists %.0f hypergiants, want 15", res.Metric("hypergiants"))
	}
	if res := run(t, "appB", Options{}); res.Metric("classes") != 8 {
		t.Errorf("Appendix B lists %.0f classes, want 8", res.Metric("classes"))
	}
}

func TestAblations(t *testing.T) {
	vpn := run(t, "ablation-vpn", quick())
	if m := vpn.Metric("missed-share"); m < 0.3 {
		t.Errorf("port-only classifier misses %.0f%% of VPN volume, expected a substantial share", m*100)
	}
	bins := run(t, "ablation-binsize", quick())
	if bins.Metric("bin6") < 0.85 {
		t.Errorf("6-hour bins classify February with %.2f agreement, want high", bins.Metric("bin6"))
	}
}

func TestResultsRenderableAndNoted(t *testing.T) {
	res := run(t, "fig3a", quick())
	if len(res.Notes) == 0 {
		t.Error("experiments should record narrative notes")
	}
	for _, tbl := range res.Tables {
		if len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty", tbl.Title)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("table %q has a row with %d cells, want %d", tbl.Title, len(row), len(tbl.Columns))
			}
		}
	}
}

func TestDatasetRespectsOptions(t *testing.T) {
	d := NewDataset(Options{FlowScale: 0.2, Seed: 77})
	if _, err := d.Generator(synth.ISPCE); err != nil {
		t.Fatal(err)
	}
	day := time.Date(2020, 2, 20, 0, 0, 0, 0, time.UTC)
	// The seed and flow-scale overrides reach the flows: the dataset's day
	// is the one a generator built with them draws, in the dataset's
	// column set, and its hour 20 is that generator's hour.
	hour := day.Add(20 * time.Hour)
	k := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(hour)}
	got, err := unpinned(d).flowBatch(synth.ISPCE, hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig(synth.ISPCE)
	cfg.Seed, cfg.FlowScale = 77, 0.2
	ref, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.FlowsBetweenBatch(day, day.AddDate(0, 0, 1)).Project(k.Columns())
	if got.Len() == 0 || !got.Equal(want) {
		t.Errorf("dataset day (%d rows) differs from the seed-77 generator's (%d rows)", got.Len(), want.Len())
	}
	lo, hi, err := d.hourRows(k, got, 20, 21)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.FlowsForHourBatch(hour).Project(k.Columns()); hi == lo || !got.Slice(lo, hi).Project(k.Columns()).Equal(want) {
		t.Errorf("dataset hour (%d rows) differs from the seed-77 generator's (%d rows)", hi-lo, want.Len())
	}
	s, err := d.Series(synth.ISPCE, day, day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Name, "ISP-CE") {
		t.Error("series naming should mention the vantage point")
	}
	if s.Len() != 24 {
		t.Errorf("one-day series has %d points, want 24", s.Len())
	}
}
