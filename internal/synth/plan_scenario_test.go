package synth_test

import (
	"os"
	"path/filepath"
	"strings"
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
		for _, vp := range synth.AllVantagePoints() {
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

// TestSeverityZeroStopsShift: default.yaml at severity 0 leaves every
// workday shape where it was — each shifting component's blend weight is
// exactly 0 at every hour of the study window — while the paper's severity
// moves every one all the way to the lockdown shape.
func TestSeverityZeroStopsShift(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "scenarios", "default.yaml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(string(data), "severity: 1.0", "severity: 0", 1)
	if src == string(data) {
		t.Fatal(`default.yaml has no "severity: 1.0" line`)
	}
	s, err := scenario.Parse(path, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	shifting := 0
	for _, vp := range synth.AllVantagePoints() {
		for name, w := range synth.MaxShiftWeights(t, s.Config(vp)) {
			shifting++
			if w != 0 {
				t.Errorf("%s/%s: blend weight reaches %v at severity 0, want 0 throughout", vp, name, w)
			}
		}
		for name, w := range synth.MaxShiftWeights(t, synth.DefaultConfig(vp)) {
			if w != 1 {
				t.Errorf("%s/%s: blend weight peaks at %v at severity 1, want 1", vp, name, w)
			}
		}
	}
	if shifting == 0 {
		t.Error("no component of default.yaml shifts its diurnal pattern")
	}
}
