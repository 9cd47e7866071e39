package linkutil

import (
	"testing"
	"time"

	"lockdown/internal/synth"
)

func fromStats(stats []synth.MemberLinkStats) DayUtilization {
	d := DayUtilization{}
	for _, m := range stats {
		d.Min = append(d.Min, m.Min)
		d.Avg = append(d.Avg, m.Avg)
		d.Max = append(d.Max, m.Max)
	}
	return d
}

func ixpComparison(t *testing.T) Comparison {
	t.Helper()
	g, err := synth.NewDefault(synth.IXPCE)
	if err != nil {
		t.Fatal(err)
	}
	base := fromStats(g.MemberUtilization(time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)))
	stage := fromStats(g.MemberUtilization(time.Date(2020, 4, 22, 0, 0, 0, 0, time.UTC)))
	return Comparison{Base: base, Stage: stage}
}

func TestValidate(t *testing.T) {
	c := ixpComparison(t)
	if err := c.Base.Validate(); err != nil {
		t.Errorf("base day invalid: %v", err)
	}
	if err := c.Stage.Validate(); err != nil {
		t.Errorf("stage day invalid: %v", err)
	}
	bad := DayUtilization{Min: []float64{0.5}, Avg: []float64{0.2}, Max: []float64{0.9}}
	if err := bad.Validate(); err == nil {
		t.Error("min > avg accepted")
	}
	bad = DayUtilization{Min: []float64{0.1}, Avg: []float64{0.2}}
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestStageShiftedRight(t *testing.T) {
	c := ixpComparison(t)
	if !c.ShiftedRight(DefaultProbes(), 0.02) {
		t.Error("stage-2 utilisation ECDFs should be shifted right of the base week (Figure 5)")
	}
	if c.MedianShift() <= 0 {
		t.Errorf("median average utilisation should increase, got shift %v", c.MedianShift())
	}
	// A week compared with itself lies "at or right" of itself everywhere
	// but has not moved.
	same := Comparison{Base: c.Base, Stage: c.Base}
	if same.ShiftedRight(DefaultProbes(), 0.02) {
		t.Error("identical curves count as shifted right")
	}
	if back := (Comparison{Base: c.Stage, Stage: c.Base}); back.ShiftedRight(DefaultProbes(), 0.02) {
		t.Error("the base week counts as shifted right of stage 2")
	}
}

func TestCurvesShapes(t *testing.T) {
	c := ixpComparison(t)
	curves := c.Curves(DefaultProbes())
	if len(curves) != 6 {
		t.Fatalf("expected 6 curves, got %d", len(curves))
	}
	for name, pts := range curves {
		if len(pts) != len(DefaultProbes()) {
			t.Fatalf("%s: %d points, want %d", name, len(pts), len(DefaultProbes()))
		}
		prev := -1.0
		for _, p := range pts {
			if p.Fraction < prev-1e-9 {
				t.Fatalf("%s: ECDF not monotone", name)
			}
			if p.Fraction < 0 || p.Fraction > 1 {
				t.Fatalf("%s: fraction %v out of range", name, p.Fraction)
			}
			prev = p.Fraction
		}
		if pts[len(pts)-1].Fraction != 1 {
			t.Errorf("%s: curve should reach 1 at 100%% utilisation", name)
		}
	}
	// For any day, the max-utilisation curve lies right of (below) the
	// min-utilisation curve.
	for i := range DefaultProbes() {
		if curves["base-max"][i].Fraction > curves["base-min"][i].Fraction+1e-9 {
			t.Error("max-utilisation ECDF should not exceed min-utilisation ECDF")
			break
		}
	}
}

func TestMembersCount(t *testing.T) {
	c := ixpComparison(t)
	if c.Base.Members() == 0 || c.Base.Members() != c.Stage.Members() {
		t.Errorf("member counts inconsistent: %d vs %d", c.Base.Members(), c.Stage.Members())
	}
}

func TestDefaultProbes(t *testing.T) {
	p := DefaultProbes()
	if len(p) < 10 || p[0] != 0.01 {
		t.Errorf("DefaultProbes = %v", p)
	}
	if p[len(p)-1] < 0.99 {
		t.Error("probes should reach 100% utilisation")
	}
}
