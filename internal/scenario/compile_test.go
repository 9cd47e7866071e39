package scenario

import (
	"os"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
)

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	s, err := Parse("test.yaml", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

const paperWave = "  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1.0\n    ramp_days: 10\n"

// TestDefaultScenarioIsIdentity is the tentpole guarantee: the shipped
// default scenario compiles to synth.DefaultConfig field for field at
// every vantage point, with no variant tag.
func TestDefaultScenarioIsIdentity(t *testing.T) {
	s, err := Load("../../examples/scenarios/default.yaml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, vp := range synth.AllVantagePoints() {
		got := s.Config(vp)
		want := synth.DefaultConfig(vp)
		if got.Variant != "" {
			t.Errorf("%s: Variant = %q, want empty", vp, got.Variant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled config differs from DefaultConfig", vp)
		}
	}
	if !s.Identity() {
		t.Error("Identity() = false, want true")
	}
}

// TestEventsReachEveryVantagePoint: a scenario does not choose its
// vantage points. An event with no vantage-point list (a lockdown wave
// takes none) reshapes all of them, and a link outage naming one changes
// that one's model and leaves the others built-in.
func TestEventsReachEveryVantagePoint(t *testing.T) {
	wave := mustParse(t, "name: half\nevents:\n"+
		"  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 0.5\n")
	reshaped := 0
	for _, vp := range synth.AllVantagePoints() {
		if got := wave.Config(vp); got.Variant == "half" && !reflect.DeepEqual(got.Components, synth.DefaultConfig(vp).Components) {
			reshaped++
		}
	}
	if reshaped != 7 {
		t.Errorf("a half-severity wave reshapes %d vantage points, want all 7", reshaped)
	}

	outage := mustParse(t, "name: dark\nevents:\n"+paperWave+
		"  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    vantage_points: [IXP-SE]\n")
	for _, vp := range synth.AllVantagePoints() {
		got, def := outage.Config(vp), synth.DefaultConfig(vp)
		if changed := got.Variant != "" || !reflect.DeepEqual(got, def); changed != (vp == synth.IXPSE) {
			t.Errorf("%s: model changed = %v (variant %q), want a change at IXP-SE only", vp, changed, got.Variant)
		}
	}
	if outage.Identity() {
		t.Error("Identity() = true for an outage at IXP-SE")
	}
}

// TestScenarioSeedScaleNotAppliedByConfig pins the layering contract:
// declared seed/flow_scale are CLI defaults, not model transforms.
func TestScenarioSeedScaleNotAppliedByConfig(t *testing.T) {
	s := mustParse(t, "name: x\nseed: 42\nflow_scale: 0.5\nevents:\n"+paperWave)
	cfg := s.Config(synth.EDU)
	def := synth.DefaultConfig(synth.EDU)
	if cfg.Seed != def.Seed || cfg.FlowScale != def.FlowScale {
		t.Errorf("Config seed/scale = %d/%g, want defaults %d/%g", cfg.Seed, cfg.FlowScale, def.Seed, def.FlowScale)
	}
	if s.Seed != 42 || s.FlowScale != 0.5 {
		t.Errorf("scenario seed/scale = %d/%g, want 42/0.5", s.Seed, s.FlowScale)
	}
}

func TestPrimaryWaveShiftSeverityAndRamp(t *testing.T) {
	s := mustParse(t, "name: late\nevents:\n"+
		"  - type: lockdown_wave\n    start: 2020-03-21\n    severity: 0.5\n    ramp_days: 14\n")
	cfg := s.Config(synth.ISPCE)
	if cfg.Variant != "late" {
		t.Fatalf("Variant = %q, want \"late\"", cfg.Variant)
	}
	def := synth.DefaultConfig(synth.ISPCE)
	delta := 7 * 24 * time.Hour
	shifting := 0
	for i, c := range cfg.Components {
		d := def.Components[i]
		if c.Resp.Delay != d.Resp.Delay+delta {
			t.Errorf("%s: Delay = %v, want %v", c.Name, c.Resp.Delay, d.Resp.Delay+delta)
		}
		wantPeak := 1 + (d.Resp.Peak-1)*0.5
		if d.Resp.Peak == 0 {
			wantPeak = 0
		}
		if !approx(c.Resp.Peak, wantPeak) {
			t.Errorf("%s: Peak = %g, want %g (from %g)", c.Name, c.Resp.Peak, wantPeak, d.Resp.Peak)
		}
		if d.Resp.Dip != 0 && !approx(c.Resp.Dip, 1+(d.Resp.Dip-1)*0.5) {
			t.Errorf("%s: Dip = %g, want %g (from %g)", c.Name, c.Resp.Dip, 1+(d.Resp.Dip-1)*0.5, d.Resp.Dip)
		}
		// The ramp is 14 days from the (shifted) ramp start.
		lock := c.Resp.RampStart
		if lock.IsZero() {
			lock = calendar.LockdownEurope.Add(c.Resp.Delay)
		}
		if want := lock.AddDate(0, 0, 14); !c.Resp.RampFull.Equal(want) {
			t.Errorf("%s: RampFull = %v, want %v", c.Name, c.Resp.RampFull, want)
		}
		if !d.Resp.RampStart.IsZero() && !c.Resp.RampStart.Equal(d.Resp.RampStart.Add(delta)) {
			t.Errorf("%s: RampStart = %v, want shifted %v", c.Name, c.Resp.RampStart, d.Resp.RampStart.Add(delta))
		}
		// The diurnal shift moves, ramps and scales with the wave.
		if d.Shift == nil {
			continue
		}
		shifting++
		if c.Shift.Delay != d.Shift.Delay+delta {
			t.Errorf("%s: Shift.Delay = %v, want %v", c.Name, c.Shift.Delay, d.Shift.Delay+delta)
		}
		if want := calendar.LockdownEurope.Add(delta).AddDate(0, 0, 14); !c.Shift.RampFull.Equal(want) {
			t.Errorf("%s: Shift.RampFull = %v, want %v", c.Name, c.Shift.RampFull, want)
		}
		if c.Shift.Peak != 1.5 {
			t.Errorf("%s: Shift.Peak = %g, want 1.5 (from %g)", c.Name, c.Shift.Peak, d.Shift.Peak)
		}
	}
	if shifting == 0 {
		t.Error("no ISP-CE component shifts its diurnal pattern")
	}
}

// TestSeverityZeroFlattensDip: at severity 0 the hypergiants'
// streaming-quality dip is part of the lockdown that did not happen, so
// every compiled dip is exactly 1 (0 where none is set); the gaming
// provider's outage is no lockdown response and keeps its depth.
func TestSeverityZeroFlattensDip(t *testing.T) {
	s := mustParse(t, "name: none\nevents:\n"+
		"  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 0\n    ramp_days: 10\n")
	dips, outages := 0, 0
	for _, vp := range synth.AllVantagePoints() {
		def := synth.DefaultConfig(vp)
		for i, c := range s.Config(vp).Components {
			for _, r := range []*synth.Response{&c.Resp, c.WeekendResp, c.ConnResp, c.Shift} {
				if r == nil || r.Dip == 0 {
					continue
				}
				dips++
				if r.Dip != 1 {
					t.Errorf("%s/%s: Dip = %g at severity 0, want 1", vp, c.Name, r.Dip)
				}
			}
			if o := def.Components[i].Resp.Outage; o != nil {
				outages++
				if !reflect.DeepEqual(c.Resp.Outage, o) {
					t.Errorf("%s/%s: Outage = %+v at severity 0, want the built-in %+v", vp, c.Name, c.Resp.Outage, o)
				}
			}
		}
	}
	if dips == 0 || outages == 0 {
		t.Errorf("%d dips and %d outages in the built-in model; the test checks nothing", dips, outages)
	}
}

// TestSharedResponsePointersCopied guards the copy-on-write of the
// WeekendResp and Shift pointers the built-in model shares between
// components: scaling must re-point, never mutate through the shared
// pointer (which would corrupt sibling components).
func TestSharedResponsePointersCopied(t *testing.T) {
	def := synth.DefaultConfig(synth.EDU)
	shared := map[*synth.Response][]string{}
	for _, c := range def.Components {
		if c.WeekendResp != nil {
			shared[c.WeekendResp] = append(shared[c.WeekendResp], c.Name)
		}
	}
	found := false
	for _, names := range shared {
		if len(names) > 1 {
			found = true
		}
	}
	if !found {
		t.Skip("built-in EDU model no longer shares WeekendResp pointers; test needs a new fixture")
	}

	s := mustParse(t, "name: half\nevents:\n"+
		"  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 0.5\n    ramp_days: 10\n")
	cfg := s.Config(synth.EDU)
	for i, c := range cfg.Components {
		d := def.Components[i]
		if c.WeekendResp == nil {
			continue
		}
		if c.WeekendResp == d.WeekendResp {
			t.Errorf("%s: WeekendResp pointer not copied", c.Name)
		}
		want := 1 + (d.WeekendResp.Peak-1)*0.5
		if d.WeekendResp.Peak == 0 {
			want = 0
		}
		if !approx(c.WeekendResp.Peak, want) {
			t.Errorf("%s: WeekendResp.Peak = %g, want %g (scaled exactly once from %g)",
				c.Name, c.WeekendResp.Peak, want, d.WeekendResp.Peak)
		}
	}

	// Every ISP-CE shifting component shares one Shift; each gets its own
	// copy, scaled once from Peak 2.
	def = synth.DefaultConfig(synth.ISPCE)
	cfg = mustParse(t, "name: half\nevents:\n"+
		"  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 0.5\n    ramp_days: 10\n").Config(synth.ISPCE)
	copies := map[*synth.Response]string{}
	for i, c := range cfg.Components {
		d := def.Components[i]
		if d.Shift == nil {
			continue
		}
		if d.Shift != def.Components[0].Shift {
			t.Fatalf("%s: the built-in ISP-CE components no longer share one Shift; test needs a new fixture", c.Name)
		}
		if c.Shift == d.Shift {
			t.Errorf("%s: Shift pointer not copied", c.Name)
		}
		if other, ok := copies[c.Shift]; ok {
			t.Errorf("%s: Shift copy shared with %s", c.Name, other)
		}
		copies[c.Shift] = c.Name
		if c.Shift.Peak != 1.5 {
			t.Errorf("%s: Shift.Peak = %g, want 1.5 (scaled exactly once from %g)", c.Name, c.Shift.Peak, d.Shift.Peak)
		}
	}
	if len(copies) < 2 {
		t.Errorf("%d ISP-CE shifting components, want several sharing one Shift", len(copies))
	}
}

func TestOverlayWaveAttachesToAllComponents(t *testing.T) {
	s := mustParse(t, "name: w2\nevents:\n"+paperWave+
		"  - type: lockdown_wave\n    start: 2020-04-25\n    severity: 0.6\n    ramp_days: 7\n    decay_start: 2020-05-08\n    end: 2020-05-15\n    retained: 0.25\n")
	cfg := s.Config(synth.ISPCE)
	if cfg.Variant != "w2" {
		t.Errorf("Variant = %q, want \"w2\"", cfg.Variant)
	}
	start := time.Date(2020, 4, 25, 0, 0, 0, 0, time.UTC)
	for _, c := range cfg.Components {
		if len(c.Waves) != 1 {
			t.Fatalf("%s: %d waves, want 1", c.Name, len(c.Waves))
		}
		w := c.Waves[0]
		if !w.Start.Equal(start) || !w.Full.Equal(start.AddDate(0, 0, 7)) ||
			w.Severity != 0.6 || w.Retained != 0.25 ||
			!w.DecayStart.Equal(time.Date(2020, 5, 8, 0, 0, 0, 0, time.UTC)) ||
			!w.End.Equal(time.Date(2020, 5, 15, 0, 0, 0, 0, time.UTC)) {
			t.Errorf("%s: wave = %+v", c.Name, w)
		}
	}
	// The primary wave matched the paper, so the responses themselves are
	// untouched.
	def := synth.DefaultConfig(synth.ISPCE)
	if !reflect.DeepEqual(cfg.Components[0].Resp, def.Components[0].Resp) {
		t.Error("primary responses changed despite a paper-exact first wave")
	}
}

func TestOutageScenarioCompile(t *testing.T) {
	s, err := Load("../../examples/scenarios/outage.yaml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// IXP-SE: members override plus a total outage modulation.
	se := s.Config(synth.IXPSE)
	if se.Members != 80 {
		t.Errorf("IXP-SE Members = %d, want 80", se.Members)
	}
	if se.Variant != "outage" {
		t.Errorf("IXP-SE Variant = %q, want \"outage\"", se.Variant)
	}
	for _, c := range se.Components {
		if len(c.Mods) != 1 || c.Mods[0].Factor != 0 {
			t.Fatalf("IXP-SE %s: mods = %+v, want one total outage", c.Name, c.Mods)
		}
	}
	// MOBILE: a partial outage with hour precision.
	mob := s.Config(synth.Mobile)
	for _, c := range mob.Components {
		if len(c.Mods) != 1 || c.Mods[0].Factor != 0.3 {
			t.Fatalf("MOBILE %s: mods = %+v", c.Name, c.Mods)
		}
		if got := c.Mods[0].Start; got.Hour() != 12 {
			t.Errorf("MOBILE outage start = %v, want 12:00", got)
		}
	}
	// ISP-CE is untouched by this scenario: identical to the default,
	// no variant tag, so it still shares golden caches.
	if got := s.Config(synth.ISPCE); got.Variant != "" || !reflect.DeepEqual(got, synth.DefaultConfig(synth.ISPCE)) {
		t.Errorf("ISP-CE should compile to the unmodified default (variant %q)", got.Variant)
	}
	if s.Identity() {
		t.Error("Identity() = true for the outage scenario")
	}
}

func TestFlashEventScenarioCompile(t *testing.T) {
	s, err := Load("../../examples/scenarios/flash-event.yaml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cfg := s.Config(synth.ISPCE)
	def := synth.DefaultConfig(synth.ISPCE)
	sawFlash, sawScaled := false, false
	flashClasses := map[synth.Class]bool{synth.ClassGaming: true, synth.ClassVoD: true, synth.ClassSocial: true}
	for i, c := range cfg.Components {
		d := def.Components[i]
		if flashClasses[c.Class] {
			if len(c.Mods) != 1 || c.Mods[0].Factor != 3.0 || c.Mods[0].RampIn != 4*time.Hour {
				t.Errorf("%s: mods = %+v, want the flash event", c.Name, c.Mods)
			}
			sawFlash = true
		} else if len(c.Mods) != 0 {
			t.Errorf("%s (class %q): unexpected mods %+v", c.Name, c.Class, c.Mods)
		}
		if c.Class == synth.ClassGaming {
			if !approx(c.BaseGbps, d.BaseGbps*1.2) {
				t.Errorf("%s: BaseGbps = %g, want %g * 1.2", c.Name, c.BaseGbps, d.BaseGbps)
			}
			sawScaled = true
		} else if c.BaseGbps != d.BaseGbps {
			t.Errorf("%s: BaseGbps changed without a class_mix entry", c.Name)
		}
		if c.Holidays == nil || !c.Holidays.Contains(time.Date(2020, 5, 8, 15, 0, 0, 0, time.UTC)) {
			t.Errorf("%s: extra holiday not attached", c.Name)
		}
	}
	if !sawFlash || !sawScaled {
		t.Errorf("flash/scaled components seen = %v/%v, want both", sawFlash, sawScaled)
	}
}

func TestReturnToOfficeCompile(t *testing.T) {
	s := mustParse(t, "name: rto\nevents:\n"+paperWave+
		"  - type: return_to_office\n    start: 2020-03-30\n    retained: 0.1\n")
	cfg := s.Config(synth.ISPCE)
	def := synth.DefaultConfig(synth.ISPCE)
	when := time.Date(2020, 3, 30, 0, 0, 0, 0, time.UTC)
	touched, untouched := 0, 0
	for i, c := range cfg.Components {
		d := def.Components[i]
		if d.Resp.RampStart.IsZero() {
			untouched++
			if !reflect.DeepEqual(c.Resp, d.Resp) {
				t.Errorf("%s: response without RampStart changed", c.Name)
			}
			continue
		}
		touched++
		if !c.Resp.DecayStart.Equal(when) {
			t.Errorf("%s: DecayStart = %v, want %v", c.Name, c.Resp.DecayStart, when)
		}
		if c.Resp.Retained != 0.1 {
			t.Errorf("%s: Retained = %g, want 0.1", c.Name, c.Resp.Retained)
		}
	}
	if touched == 0 || untouched == 0 {
		t.Errorf("touched/untouched = %d/%d, want both non-zero", touched, untouched)
	}
}

// TestOutageSilencesGeneratedHours runs the compiled outage model end to
// end: the dark IXP-SE window yields zero bytes and zero flow records.
func TestOutageSilencesGeneratedHours(t *testing.T) {
	s, err := Load("../../examples/scenarios/outage.yaml")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g, err := synth.New(s.Config(synth.IXPSE))
	if err != nil {
		t.Fatalf("synth.New: %v", err)
	}
	dark := time.Date(2020, 4, 3, 14, 0, 0, 0, time.UTC)
	if v := g.HourlyVolume(dark); v != 0 {
		t.Errorf("volume during outage = %g, want 0", v)
	}
	if n := len(g.FlowsForHourBatch(dark).Records()); n != 0 {
		t.Errorf("flows during outage = %d, want 0", n)
	}
	lit := time.Date(2020, 4, 5, 14, 0, 0, 0, time.UTC)
	if v := g.HourlyVolume(lit); v <= 0 {
		t.Errorf("volume after outage = %g, want > 0", v)
	}
}

func TestSchemaDocMatchesCommittedFile(t *testing.T) {
	want, err := os.ReadFile("../../docs/SCENARIOS.md")
	if err != nil {
		t.Fatalf("read docs/SCENARIOS.md: %v", err)
	}
	if got := SchemaDoc(); got != string(want) {
		t.Error("docs/SCENARIOS.md is stale; regenerate with `lockdown scenario doc > docs/SCENARIOS.md`")
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
