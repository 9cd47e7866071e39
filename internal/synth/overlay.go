package synth

import "time"

// This file holds the scenario overlay types: time-varying modifiers a
// compiled scenario (internal/scenario) attaches to components on top of
// their built-in primary Response; plan.go compiles and evaluates them.
// The built-in model attaches none.

// Wave is an additional lockdown wave overlaid on a component. Unlike a
// flat Modulation it reuses the component's own response character: at
// full effect it multiplies the volume by 1 + (peak-1)*Severity, where
// peak is the component's applicable Peak/PeakWorkHours/PeakWeekend for
// that hour — so a second wave makes conferencing surge during working
// hours and enterprise transit collapse, just like the first one did.
type Wave struct {
	// Start is when the wave's effect begins ramping in.
	Start time.Time
	// Full is when the ramp completes (effect fraction 1).
	Full time.Time
	// DecayStart, if set, is when the effect starts decaying towards
	// Retained. Zero means the effect holds at 1 until End.
	DecayStart time.Time
	// End closes the decay window. Zero with a zero DecayStart means the
	// effect persists to the end of the study window.
	End time.Time
	// Severity scales the component's (peak-1) excursion: 1 repeats the
	// primary wave's amplitude, 0.5 is half as strong.
	Severity float64
	// Retained is the fraction of the wave's change still present after
	// End (0 reverts fully, like Response.Retained but for this wave).
	Retained float64
}

// Modulation is a flat, windowed volume multiplier: a flash event
// (Factor > 1) or a link outage (Factor < 1, 0 silencing the component
// entirely). It applies to volumes and flow counts alike; a Factor of
// exactly 0 yields a genuinely silent component-hour — zero bytes, zero
// flow records.
type Modulation struct {
	// Start and End bound the affected window (half-open, [Start, End)).
	Start, End time.Time
	// RampIn and RampOut are linear edges inside the window over which
	// the factor fades in and out; zero means a hard edge.
	RampIn, RampOut time.Duration
	// Factor is the multiplier at full effect.
	Factor float64
}
