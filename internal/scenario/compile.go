package scenario

import (
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/synth"
)

// Config compiles the scenario for one vantage point into a synth.Config.
//
// The compilation is built around an identity guarantee: every transform
// is guarded so that a no-op declaration (the paper's own timeline —
// lockdown on calendar.LockdownEurope, severity 1, the default ten-day
// ramp, no further events) leaves the built-in synth.DefaultConfig
// untouched, field for field. Only a config whose model actually differs
// gets the scenario's name as its Variant, which is how Identity tells a
// restatement of the paper's timeline from a modified model.
//
// Seed and FlowScale are deliberately left at their DefaultConfig values;
// the scenario's declared seed/flow_scale are CLI-level defaults that
// explicit flags may override (see cmd/lockdown).
func (s *Scenario) Config(vp synth.VantagePoint) synth.Config {
	cfg := synth.DefaultConfig(vp)
	comps := cfg.Components
	changed := false
	copied := false
	ensure := func() {
		if !copied {
			comps = append([]synth.Component(nil), comps...)
			copied = true
		}
	}

	if n, ok := s.Members[vp]; ok && n != cfg.Members {
		cfg.Members = n
		changed = true
	}
	for i := range comps {
		if f, ok := s.ClassMix[comps[i].Class]; ok && f != 1 {
			ensure()
			comps[i].BaseGbps *= f
			changed = true
		}
	}

	var holidays []time.Time
	sawPrimary := false
	for _, ev := range s.Events {
		switch ev.Type {
		case EventLockdownWave:
			if !sawPrimary {
				sawPrimary = true
				delta := ev.Start.Sub(calendar.LockdownEurope)
				for i := range comps {
					if c, mutated := applyPrimaryWave(comps[i], delta, ev.RampDays, ev.Severity); mutated {
						ensure()
						comps[i] = c
						changed = true
					}
				}
				continue
			}
			w := synth.Wave{
				Start:      ev.Start,
				Full:       ev.Start.AddDate(0, 0, ev.RampDays),
				DecayStart: ev.DecayStart,
				End:        ev.End,
				Severity:   ev.Severity,
			}
			if ev.Retained != nil {
				w.Retained = *ev.Retained
			}
			ensure()
			for i := range comps {
				comps[i].Waves = append(comps[i].Waves, w)
			}
			changed = true
		case EventHoliday:
			holidays = append(holidays, ev.Date)
		case EventFlashEvent:
			mod := synth.Modulation{
				Start:   ev.Start,
				End:     ev.End,
				RampIn:  ev.RampIn,
				RampOut: ev.RampOut,
				Factor:  ev.Factor,
			}
			for i := range comps {
				if !classMatches(ev.Classes, comps[i].Class) {
					continue
				}
				ensure()
				comps[i].Mods = append(comps[i].Mods, mod)
				changed = true
			}
		case EventLinkOutage:
			if !vpMatches(ev.VPs, vp) {
				continue
			}
			mod := synth.Modulation{Start: ev.Start, End: ev.End, Factor: ev.Residual}
			ensure()
			for i := range comps {
				comps[i].Mods = append(comps[i].Mods, mod)
			}
			changed = true
		case EventReturnToOffice:
			for i := range comps {
				if c, mutated := applyReturnToOffice(comps[i], ev); mutated {
					ensure()
					comps[i] = c
					changed = true
				}
			}
		}
	}

	if len(holidays) > 0 {
		hs := calendar.NewHolidaySet(holidays)
		ensure()
		for i := range comps {
			comps[i].Holidays = hs
		}
		changed = true
	}

	cfg.Components = comps
	if changed {
		cfg.Variant = s.Name
	}
	return cfg
}

// Identity reports whether the scenario compiles to the unmodified
// built-in model at every vantage point (i.e. it merely restates the
// paper's timeline).
func (s *Scenario) Identity() bool {
	for _, vp := range synth.AllVantagePoints() {
		if s.Config(vp).Variant != "" {
			return false
		}
	}
	return true
}

// File returns the path the scenario was loaded from ("" for Parse).
func (s *Scenario) File() string { return s.file }

// eachResponse applies f to every response of c: Resp, and WeekendResp,
// ConnResp and Shift where set. The built-in model shares those pointers
// between components, so a changed one is re-pointed to a private copy,
// never written through. It reports whether f changed any.
func eachResponse(c *synth.Component, f func(synth.Response) (synth.Response, bool)) bool {
	mutated := false
	if r, ch := f(c.Resp); ch {
		c.Resp = r
		mutated = true
	}
	for _, p := range []**synth.Response{&c.WeekendResp, &c.ConnResp, &c.Shift} {
		if *p == nil {
			continue
		}
		if r, ch := f(**p); ch {
			*p = &r
			mutated = true
		}
	}
	return mutated
}

// applyPrimaryWave re-parametrises a component's built-in responses for a
// primary wave that deviates from the paper's: shifted start, different
// ramp length, scaled severity. The diurnal shift is one of them, so the
// wave's start, ramp and severity reach the workday shape too. A wave
// matching the paper exactly (delta 0, ten-day ramp, severity 1) returns
// the component untouched.
func applyPrimaryWave(c synth.Component, delta time.Duration, rampDays int, severity float64) (synth.Component, bool) {
	mutated := eachResponse(&c, func(r synth.Response) (synth.Response, bool) {
		return retime(r, delta, rampDays, severity)
	})
	return c, mutated
}

// retime applies the primary-wave deviations to one Response value.
func retime(r synth.Response, delta time.Duration, rampDays int, severity float64) (synth.Response, bool) {
	changed := false
	if delta != 0 {
		// The whole timeline shifts: the built-in Delay moves the
		// calendar anchors, explicit ramp/decay dates move with it.
		r.Delay += delta
		for _, tp := range []*time.Time{&r.RampStart, &r.RampFull, &r.DecayStart} {
			if !tp.IsZero() {
				*tp = tp.Add(delta)
			}
		}
		changed = true
	}
	if rampDays != 10 {
		lock := r.RampStart
		if lock.IsZero() {
			lock = calendar.LockdownEurope.Add(r.Delay)
		}
		r.RampFull = lock.AddDate(0, 0, rampDays)
		changed = true
	}
	if severity != 1 {
		r.Peak = scalePeak(r.Peak, severity)
		r.PeakWorkHours = scalePeak(r.PeakWorkHours, severity)
		r.PeakWeekend = scalePeak(r.PeakWeekend, severity)
		r.Dip = scalePeak(r.Dip, severity)
		changed = true
	}
	return r, changed
}

// scalePeak scales a peak multiplier's excursion from 1 by severity,
// preserving 0 (which means "unset" on the optional peak fields).
func scalePeak(p, severity float64) float64 {
	if p == 0 {
		return 0
	}
	return 1 + (p-1)*severity
}

// applyReturnToOffice ends the behaviour-driven changes early: responses
// with an explicit RampStart (the remote-work and stay-home-demand
// markers, see synth.earlyResponse/earlyDemand) start decaying at the
// event date, optionally towards a new retained fraction. The diurnal
// shift has no RampStart and is left alone.
func applyReturnToOffice(c synth.Component, ev Event) (synth.Component, bool) {
	mutated := eachResponse(&c, func(r synth.Response) (synth.Response, bool) {
		if r.RampStart.IsZero() {
			return r, false
		}
		ch := false
		if !r.DecayStart.Equal(ev.Start) {
			r.DecayStart = ev.Start
			ch = true
		}
		if ev.Retained != nil && r.Retained != *ev.Retained {
			r.Retained = *ev.Retained
			ch = true
		}
		return r, ch
	})
	return c, mutated
}

func classMatches(classes []synth.Class, c synth.Class) bool {
	if len(classes) == 0 {
		return true
	}
	for _, want := range classes {
		if want == c {
			return true
		}
	}
	return false
}

func vpMatches(vps []synth.VantagePoint, vp synth.VantagePoint) bool {
	if len(vps) == 0 {
		return true
	}
	for _, want := range vps {
		if want == vp {
			return true
		}
	}
	return false
}
