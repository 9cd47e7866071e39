package scenario

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"lockdown/internal/synth"
)

var positioned = regexp.MustCompile(`^fuzz\.yaml:[0-9]+: `)

// FuzzLoad feeds arbitrary documents to the scenario parser, the way
// `lockdown scenario validate|run` reads a user's file. It must not panic;
// every error names a line of the file; and a scenario it accepts holds
// only finite floats and compiles, at every vantage point, to a model the
// generator accepts. Seeded with the gallery and the NaN
// documents the parser used to accept.
func FuzzLoad(f *testing.F) {
	gallery, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(gallery) < 4 {
		f.Fatalf("gallery: %v, %v", gallery, err)
	}
	for _, path := range gallery {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range []string{
		"name: x\nflow_scale: NaN\n",
		"name: x\nclass_mix:\n  gaming: +Inf\n",
		"name: x\nevents:\n  - type: lockdown_wave\n    start: 2020-03-14\n    severity: NaN\n",
		"name: x\nevents:\n  - type: link_outage\n    start: 2020-04-02\n    end: 2020-04-04\n    residual: nan\n  - type: return_to_office\n    start: 2020-05-04\n    retained: -Inf\n",
		"",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse("fuzz.yaml", doc)
		if err != nil {
			if !positioned.MatchString(err.Error()) {
				t.Fatalf("error without a line: %v", err)
			}
			return
		}
		floats := []float64{s.FlowScale}
		for _, v := range s.ClassMix {
			floats = append(floats, v)
		}
		for _, ev := range s.Events {
			floats = append(floats, ev.Severity, ev.Factor, ev.Residual)
			if ev.Retained != nil {
				floats = append(floats, *ev.Retained)
			}
		}
		for _, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite float %g: %+v", v, s)
			}
		}
		for _, vp := range synth.AllVantagePoints() {
			if _, err := synth.New(s.Config(vp)); err != nil {
				t.Fatalf("accepted scenario does not compile for %s: %v", vp, err)
			}
		}
	})
}
