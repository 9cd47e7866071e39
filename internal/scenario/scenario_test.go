package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedScenarios is the schema-validation error table: every
// malformed document must be rejected with an error naming the offending
// key (and, where the prefix is included, the exact file:line).
func TestMalformedScenarios(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{
			"missing-name",
			"description: nameless\n",
			"name: required",
		},
		{
			"name-with-space",
			"name: bad name\n",
			"test.yaml:1: name: must not contain spaces or slashes (it becomes the compiled model's variant tag)",
		},
		{
			"unknown-top-key",
			"name: x\nbogus: 1\n",
			"test.yaml:2: bogus: unknown key",
		},
		{
			// The scenario cannot choose its vantage points; a file
			// still listing them gets the ordinary unknown-key error.
			"top-level-vantage-points",
			"name: x\nvantage_points: [ISP-CE, EDU]\n",
			"test.yaml:2: vantage_points: unknown key",
		},
		{
			// The key was retired with the historic sampler; a file still
			// carrying it gets the ordinary unknown-key error.
			"bad-model-version",
			"name: x\nmodel_version: 2\n",
			"test.yaml:2: model_version: unknown key",
		},
		{
			"seed-not-integer",
			"name: x\nseed: soon\n",
			"test.yaml:2: seed: invalid integer \"soon\"",
		},
		{
			"flow-scale-zero",
			"name: x\nflow_scale: 0\n",
			"flow_scale: must be positive, got 0",
		},
		{
			"flow-scale-not-number",
			"name: x\nflow_scale: lots\n",
			"flow_scale: invalid number \"lots\"",
		},
		{
			"members-unknown-vp",
			"name: x\nmembers:\n  FOO: 10\n",
			"test.yaml:3: members.FOO: unknown vantage point",
		},
		{
			"members-not-positive",
			"name: x\nmembers:\n  IXP-CE: 0\n",
			"members.IXP-CE: member count must be a positive integer, got \"0\"",
		},
		{
			"class-mix-unknown-class",
			"name: x\nclass_mix:\n  funny: 2\n",
			"test.yaml:3: class_mix.funny: unknown traffic class \"funny\"",
		},
		{
			"class-mix-negative",
			"name: x\nclass_mix:\n  gaming: -1\n",
			"class_mix.gaming: scale factor must be a positive number",
		},
		{
			"events-not-a-list",
			"name: x\nevents: 3\n",
			"events: expected a list of events",
		},
		{
			"event-missing-type",
			"name: x\nevents:\n  - start: 2020-03-14\n",
			"events[0].type: required",
		},
		{
			"unknown-event-type",
			"name: x\nevents:\n  - type: party\n",
			"test.yaml:3: events[0].type: unknown event type \"party\"",
		},
		{
			"wave-unknown-key",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n    ramp: 3\n",
			"test.yaml:6: events[0].ramp: unknown key",
		},
		{
			"wave-invalid-date",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-13-40\n    severity: 1\n",
			"test.yaml:4: events[0].start: invalid date \"2020-13-40\"",
		},
		{
			"wave-date-before-window",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2019-12-01\n    severity: 1\n",
			"events[0].start: date 2019-12-01 outside the study window [2020-01-01, 2020-05-18)",
		},
		{
			"wave-date-after-window",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-06-01\n    severity: 1\n",
			"events[0].start: date 2020-06-01 outside the study window",
		},
		{
			"wave-missing-severity",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n",
			"events[0].severity: required",
		},
		{
			"wave-negative-severity",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: -0.5\n",
			"test.yaml:5: events[0].severity: must not be negative, got -0.5",
		},
		{
			"wave-ramp-too-long",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n    ramp_days: 90\n",
			"events[0].ramp_days: must be between 0 and 60 days, got 90",
		},
		{
			"primary-wave-with-retained",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n    retained: 0.5\n",
			"events[0].retained: only overlay waves",
		},
		{
			"overlapping-waves",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n  - type: lockdown_wave\n    start: 2020-03-20\n    severity: 0.5\n",
			"events[1].start: wave starting 2020-03-20 overlaps the previous wave (line 3, ramping until 2020-03-24)",
		},
		{
			"overlay-decay-before-full",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n  - type: lockdown_wave\n    start: 2020-04-10\n    severity: 0.5\n    decay_start: 2020-04-12\n",
			"events[1].decay_start: decay cannot start before the ramp completes (2020-04-20)",
		},
		{
			"overlay-end-before-decay",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: 1\n  - type: lockdown_wave\n    start: 2020-04-10\n    severity: 0.5\n    decay_start: 2020-04-25\n    end: 2020-04-24\n",
			"events[1].end: must be after 2020-04-25",
		},
		{
			"flash-end-before-start",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-27\n    factor: 2\n",
			"events[0].end: must be after start (2020-03-28)",
		},
		{
			"flash-missing-factor",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-29\n",
			"events[0].factor: required",
		},
		{
			"flash-negative-factor",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-29\n    factor: -2\n",
			"events[0].factor: must not be negative, got -2",
		},
		{
			"flash-unknown-class",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-29\n    factor: 2\n    classes: [frisbee]\n",
			"test.yaml:7: events[0].classes[0]: unknown traffic class \"frisbee\"",
		},
		{
			"flash-ramps-exceed-window",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-29\n    factor: 2\n    ramp_in_hours: 20\n    ramp_out_hours: 8\n",
			"events[0].ramp_in_hours: ramps longer than the event window",
		},
		{
			"outage-residual-out-of-range",
			"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    residual: 1.5\n",
			"events[0].residual: must be within [0, 1], got 1.5",
		},
		{
			"outage-unknown-vp",
			"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    vantage_points: [NOPE]\n",
			"events[0].vantage_points[0]: unknown vantage point \"NOPE\"",
		},
		{
			// Listed twice, the vantage point used to be refused as an
			// overlap with the event itself.
			"outage-duplicate-vp",
			"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    vantage_points:\n      - EDU\n      - EDU\n",
			"test.yaml:8: events[0].vantage_points[1]: duplicate vantage point \"EDU\" (also item 0)",
		},
		{
			"overlapping-outages",
			"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n  - type: link_outage\n    start: 2020-04-03\n    end: 2020-04-05\n",
			"events[1].start: outage overlaps the one on line 3 at \"ISP-CE\"",
		},
		{
			"holiday-invalid-date",
			"name: x\nevents:\n  - type: holiday\n    date: someday\n",
			"events[0].date: invalid date \"someday\"",
		},
		{
			// NaN fails every range comparison behind a float, and +Inf
			// passes the one-sided ones: neither is a number here.
			"flow-scale-nan",
			"name: x\nflow_scale: NaN\n",
			"test.yaml:2: flow_scale: invalid number \"NaN\"",
		},
		{
			"flow-scale-inf",
			"name: x\nflow_scale: +Inf\n",
			"test.yaml:2: flow_scale: invalid number \"+Inf\"",
		},
		{
			"severity-nan",
			"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: nan\n",
			"test.yaml:5: events[0].severity: invalid number \"nan\"",
		},
		{
			"factor-inf",
			"name: x\nevents:\n  - type: flash_event\n    start: 2020-03-28\n    end: 2020-03-29\n    factor: Infinity\n",
			"test.yaml:6: events[0].factor: invalid number \"Infinity\"",
		},
		{
			"residual-nan",
			"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    residual: NaN\n",
			"test.yaml:6: events[0].residual: invalid number \"NaN\"",
		},
		{
			"class-mix-nan",
			"name: x\nclass_mix:\n  gaming: NaN\n",
			"test.yaml:3: class_mix.gaming: scale factor must be a positive number, got \"NaN\"",
		},
		{
			"class-mix-inf",
			"name: x\nclass_mix:\n  gaming: Inf\n",
			"test.yaml:3: class_mix.gaming: scale factor must be a positive number, got \"Inf\"",
		},
		{
			"return-retained-out-of-range",
			"name: x\nevents:\n  - type: return_to_office\n    start: 2020-03-30\n    retained: 2\n",
			"events[0].retained: must be within [0, 1], got 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("test.yaml", []byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted malformed document, want error containing %q\n%s", tc.wantErr, tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseFullScenario(t *testing.T) {
	src := `name: full
description: exercises every field
seed: 42
flow_scale: 0.5
members:
  IXP-SE: 75
class_mix:
  gaming: 1.5
events:
  - type: lockdown_wave
    start: 2020-03-14
    severity: 1
  - type: holiday
    date: 2020-05-08
    name: extra-day
  - type: flash_event
    start: 2020-03-28
    end: 2020-03-29
    factor: 3
    classes: [gaming]
    ramp_in_hours: 2
  - type: link_outage
    start: 2020-04-02
    end: 2020-04-03
    residual: 0.25
    vantage_points: [IXP-SE]
  - type: return_to_office
    start: 2020-04-27
    retained: 0.1
`
	s, err := Parse("full.yaml", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "full" || s.Seed != 42 || s.FlowScale != 0.5 {
		t.Errorf("top level = %+v", s)
	}
	if s.Members["IXP-SE"] != 75 || s.ClassMix["gaming"] != 1.5 {
		t.Errorf("members/class_mix = %v %v", s.Members, s.ClassMix)
	}
	if len(s.Events) != 5 {
		t.Fatalf("events = %d, want 5", len(s.Events))
	}
	types := []EventType{EventLockdownWave, EventHoliday, EventFlashEvent, EventLinkOutage, EventReturnToOffice}
	for i, want := range types {
		if s.Events[i].Type != want {
			t.Errorf("events[%d].Type = %q, want %q", i, s.Events[i].Type, want)
		}
	}
	if got := s.Events[4].Retained; got == nil || *got != 0.1 {
		t.Errorf("return retained = %v, want 0.1", got)
	}
	if s.Events[2].RampIn.Hours() != 2 {
		t.Errorf("flash ramp_in = %v", s.Events[2].RampIn)
	}
}

// TestGalleryScenariosLoad pins the shipped example scenarios: they must
// parse, and only default.yaml may be an identity compilation.
func TestGalleryScenariosLoad(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(files) < 4 {
		t.Fatalf("gallery glob = %v files, err %v (want >= 4)", len(files), err)
	}
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			t.Errorf("Load(%s): %v", f, err)
			continue
		}
		if s.File() != f {
			t.Errorf("File() = %q, want %q", s.File(), f)
		}
		isDefault := filepath.Base(f) == "default.yaml"
		if got := s.Identity(); got != isDefault {
			t.Errorf("%s: Identity() = %v, want %v", f, got, isDefault)
		}
	}
}
