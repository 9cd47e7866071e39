package synth

import (
	"testing"

	"lockdown/internal/calendar"
)

// checkPlanAgainstReference holds the compiled plan of cfg to the
// reference evaluator with ==: the volume of every component × every hour
// of the study window and, wherever the sampler would run, the connection
// multiplier and the flow count. The reference blends a shifting
// component's workday profile with diurnal.Blend and the plan with
// blendShape, so it also counts the workday hours of shifting components
// it compared — every one of them goes through blendShape — and fails
// when cfg has such a component and none was compared.
func checkPlanAgainstReference(t *testing.T, cfg Config) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, silent, blended := 0, 0, 0
	shifting := false
	for i := range g.plan {
		shifting = shifting || g.plan[i].shift != nil
	}
	eachHour(calendar.StudyStart, calendar.StudyEnd, func(h *hour) {
		for i := range g.plan {
			c := cfg.Components[i]
			s := g.sampled(&g.plan[i], h)
			if want := refVolumeAt(c, h.start, cfg.Seed); s.volume != want {
				t.Fatalf("%s/%s at %v: volume %v, reference %v", cfg.VP, c.Name, h.start, s.volume, want)
			}
			if g.plan[i].shift != nil && !s.weekend {
				blended++
			}
			if want := refHourHash(cfg.Seed, c.Name, h.start); s.hash != want {
				t.Fatalf("%s/%s at %v: hour hash %#x, reference %#x", cfg.VP, c.Name, h.start, s.hash, want)
			}
			if s.volume <= 0 {
				silent++
				continue
			}
			live++
			if want := refConnMultiplier(c, h.start); s.connMult != want {
				t.Fatalf("%s/%s at %v: connection multiplier %v, reference %v", cfg.VP, c.Name, h.start, s.connMult, want)
			}
			if want := refFlowCount(c, h.start, g.cfg.FlowScale); s.flows != want {
				t.Fatalf("%s/%s at %v: flow count %d, reference %d", cfg.VP, c.Name, h.start, s.flows, want)
			}
		}
	})
	if live == 0 {
		t.Fatalf("%s: no live component-hour compared", cfg.VP)
	}
	if shifting && blended == 0 {
		t.Fatalf("%s%s: no blended workday hour of a shifting component compared", cfg.VP, cfg.Variant)
	}
	t.Logf("%s%s: %d live and %d silent component-hours identical, %d of them blended workday hours", cfg.VP, cfg.Variant, live, silent, blended)
}

// maxShiftWeights compiles cfg and returns, per component with a shift,
// the largest blend weight its plan takes over the hours of the study
// window.
func maxShiftWeights(t *testing.T, cfg Config) map[string]float64 {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak := map[string]float64{}
	eachHour(calendar.StudyStart, calendar.StudyEnd, func(h *hour) {
		for i := range g.plan {
			p := &g.plan[i]
			if p.shift == nil {
				continue
			}
			w := p.shift.weight(h.ns)
			if prev, ok := peak[p.c.Name]; !ok || w > prev {
				peak[p.c.Name] = w
			}
		}
	})
	return peak
}

// TestPlanMatchesReference covers the built-in model of all seven vantage
// points at the suite's flow scale and at a second seed; the compiled
// scenario gallery is covered by TestPlanMatchesReferenceOnScenarios.
func TestPlanMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("scans every component-hour of the study window")
	}
	for _, vp := range AllVantagePoints() {
		cfg := DefaultConfig(vp)
		cfg.FlowScale = 0.5
		checkPlanAgainstReference(t, cfg)
	}
	cfg := DefaultConfig(ISPCE)
	cfg.Seed = 7
	checkPlanAgainstReference(t, cfg)
}

// TestCompileRejectsUnrepresentableDates: timelines are compiled to int64
// nanoseconds, so a date outside that range is an error, not a wrap-around.
func TestCompileRejectsUnrepresentableDates(t *testing.T) {
	cfg := DefaultConfig(ISPCE)
	cfg.Components = append([]Component(nil), cfg.Components...)
	cfg.Components[0].Resp.RampStart = date(2400, 1, 1)
	if _, err := New(cfg); err == nil {
		t.Error("ramp start in year 2400 accepted")
	}
}
