package synth_test

import (
	"path/filepath"
	"testing"

	"lockdown/internal/scenario"
	"lockdown/internal/synth"
)

// TestPlanMatchesReferenceOnScenarios runs the equivalence check on the
// gallery scenarios, which exercise what the built-in model does not:
// overlay waves with decay and retention (wave2), ramped flash events and
// extra holidays (flash-event), and factor-0 outage hours (outage).
func TestPlanMatchesReferenceOnScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("scans every component-hour of the study window")
	}
	for _, name := range []string{"wave2", "outage", "flash-event"} {
		s, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		modified := 0
		for _, vp := range s.VPs {
			cfg := s.Config(vp)
			if cfg.Variant == "" {
				continue // compiles to the built-in model, covered there
			}
			modified++
			synth.CheckPlanAgainstReference(t, cfg)
		}
		if modified == 0 {
			t.Errorf("%s: no vantage point deviates from the built-in model", name)
		}
	}
}
