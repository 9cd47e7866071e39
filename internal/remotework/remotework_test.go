package remotework

import (
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
)

func TestGroupOf(t *testing.T) {
	cases := []struct {
		workday, weekend float64
		want             Group
	}{
		{10, 2, GroupWorkdayDominant},
		{2, 10, GroupWeekendDominant},
		{5, 5, GroupBalanced},
		{5, 4.5, GroupBalanced},
		{5, 0, GroupWorkdayDominant},
		{0, 0, GroupBalanced},
	}
	for _, c := range cases {
		if got := GroupOf(c.workday, c.weekend); got != c.want {
			t.Errorf("GroupOf(%v, %v) = %v, want %v", c.workday, c.weekend, got, c.want)
		}
	}
	if GroupWorkdayDominant.String() != "workday-dominant" || GroupBalanced.String() != "balanced" ||
		GroupWeekendDominant.String() != "weekend-dominant" {
		t.Error("Group strings unexpected")
	}
}

func TestNormDiffBounds(t *testing.T) {
	if d := normDiff(100, 100); d != 0 {
		t.Errorf("equal volumes should give 0, got %v", d)
	}
	if d := normDiff(0, 100); d != 1 {
		t.Errorf("appearing traffic should give +1, got %v", d)
	}
	if d := normDiff(100, 0); d != -1 {
		t.Errorf("vanishing traffic should give -1, got %v", d)
	}
	if d := normDiff(0, 0); d != 0 {
		t.Errorf("no traffic should give 0, got %v", d)
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	base := map[uint32]ASWeek{
		1: {Total: 100, Residential: 80, Workday: 10, Weekend: 12}, // hypergiant-like
		2: {Total: 50, Residential: 5, Workday: 10, Weekend: 2},    // enterprise: total down, residential up
		3: {Total: 30, Residential: 25, Workday: 5, Weekend: 5},    // balanced service
		4: {Total: 10, Residential: 0, Workday: 3, Weekend: 0.5},   // pure transit
		9: {Total: 10, Residential: 10, Workday: 1, Weekend: 1},    // disappears from the lockdown week
	}
	lock := map[uint32]ASWeek{
		1: {Total: 120, Residential: 100},
		2: {Total: 35, Residential: 12},
		3: {Total: 33, Residential: 28},
		4: {Total: 9, Residential: 0},
	}
	res := Analyze(base, lock)
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 points, got %d", len(res.Points))
	}
	byASN := map[uint32]Point{}
	for _, p := range res.Points {
		byASN[p.ASN] = p
	}
	if byASN[1].Quadrant != QuadrantBothUp {
		t.Errorf("AS1 quadrant = %q", byASN[1].Quadrant)
	}
	if byASN[2].Quadrant != QuadrantTotalDownRes {
		t.Errorf("AS2 quadrant = %q, want total down / residential up", byASN[2].Quadrant)
	}
	if byASN[2].Group != GroupWorkdayDominant {
		t.Errorf("AS2 group = %v, want workday-dominant", byASN[2].Group)
	}
	if byASN[4].DiffResidential != 0 {
		t.Errorf("AS4 residential diff = %v, want 0", byASN[4].DiffResidential)
	}
	counts := res.QuadrantCounts()
	// AS1 and AS3 grow on both axes; AS2 loses total but gains
	// residential traffic; AS4 (pure transit, no residential change)
	// shrinks in total and sits on the x-axis of the same quadrant.
	if counts[QuadrantBothUp] != 2 || counts[QuadrantTotalDownRes] != 2 {
		t.Errorf("quadrant counts = %v", counts)
	}
	workday := 0
	for _, p := range res.Points {
		if p.Group == GroupWorkdayDominant {
			workday++
		}
	}
	if workday < 1 {
		t.Errorf("workday-dominant group size = %d", workday)
	}
}

// asWeeksFromGenerator builds the per-AS week summaries the ISP-CE
// experiment feeds into Analyze.
func asWeeksFromGenerator(g *synth.Generator, week calendar.Week) map[uint32]ASWeek {
	out := make(map[uint32]ASWeek)
	vols := g.ASVolumeBetween(week.Start, week.End)
	// Workday/weekend split: Wednesday vs Saturday of the week.
	var wedStart, satStart time.Time
	for _, d := range calendar.Days(week.Start, week.End) {
		if d.Weekday() == time.Wednesday && wedStart.IsZero() {
			wedStart = d
		}
		if d.Weekday() == time.Saturday && satStart.IsZero() {
			satStart = d
		}
	}
	wed := g.ASVolumeBetween(wedStart, wedStart.AddDate(0, 0, 1))
	sat := g.ASVolumeBetween(satStart, satStart.AddDate(0, 0, 1))
	for asn, v := range vols {
		out[asn] = ASWeek{
			Total:       v.Total,
			Residential: v.Residential,
			Workday:     wed[asn].Total,
			Weekend:     sat[asn].Total,
		}
	}
	return out
}

func TestAnalyzeOnGeneratedISPData(t *testing.T) {
	g, err := synth.NewDefault(synth.ISPCE)
	if err != nil {
		t.Fatal(err)
	}
	weeks := calendar.ISPWeeks()
	base := asWeeksFromGenerator(g, weeks[0])
	lock := asWeeksFromGenerator(g, weeks[1])
	res := Analyze(base, lock)
	if len(res.Points) < 20 {
		t.Fatalf("expected many ASes in the scatter, got %d", len(res.Points))
	}
	// The paper observes a clear positive correlation between total and
	// residential shifts.
	if res.Correlation < 0.3 {
		t.Errorf("correlation = %.2f, want clearly positive", res.Correlation)
	}
	// Enterprises show up as workday-dominant ASes whose residential
	// traffic grows while their total shrinks or stagnates.
	counts := res.QuadrantCounts()
	if counts[QuadrantBothUp] == 0 {
		t.Error("expected ASes with both total and residential increases")
	}
	foundEnterpriseLike := false
	for _, p := range res.Points {
		if p.Group == GroupWorkdayDominant && p.DiffResidential > 0.05 && p.DiffTotal < p.DiffResidential {
			foundEnterpriseLike = true
			break
		}
	}
	if !foundEnterpriseLike {
		t.Error("expected at least one workday-dominant AS with residential growth outpacing total growth")
	}
}
