package diurnal

import (
	"math"
	"testing"
	"testing/quick"
)

func allProfiles() map[string]Profile {
	return map[string]Profile{
		"ResidentialWorkday":   ResidentialWorkday(),
		"ResidentialWeekend":   ResidentialWeekend(),
		"LockdownWorkday":      LockdownWorkday(),
		"OfficeHours":          OfficeHours(),
		"EveningEntertainment": EveningEntertainment(),
		"AllDayEntertainment":  AllDayEntertainment(),
		"CampusDay":            CampusDay(),
		"RemoteCampusAccess":   RemoteCampusAccess(),
		"Flat":                 Flat(),
	}
}

func TestProfilesNormalised(t *testing.T) {
	for name, p := range allProfiles() {
		max := 0.0
		for h := 0; h < 24; h++ {
			v := p[h]
			if v < 0 {
				t.Errorf("%s: negative weight at hour %d", name, h)
			}
			if v > max {
				max = v
			}
		}
		if math.Abs(max-1) > 1e-9 {
			t.Errorf("%s: maximum weight = %v, want 1", name, max)
		}
	}
}

// peakHour is the hour with the largest weight (the earliest on ties).
func peakHour(p Profile) int {
	best := 0
	for h, v := range p {
		if v > p[best] {
			best = h
		}
	}
	return best
}

func TestWorkdayEveningPeak(t *testing.T) {
	p := ResidentialWorkday()
	if peak := peakHour(p); peak < 19 || peak > 22 {
		t.Errorf("residential workday peak at %d, want evening (19-22)", peak)
	}
	// Night trough well below daytime.
	if p[3] > 0.5*p[15] {
		t.Errorf("night load %v not clearly below afternoon load %v", p[3], p[15])
	}
}

func TestWeekendMorningMomentum(t *testing.T) {
	wd, we := ResidentialWorkday(), ResidentialWeekend()
	// The paper's distinguishing feature: weekend activity at 10:00-12:00
	// is a much larger fraction of its evening peak than on a workday.
	wdRatio := wd[11] / wd[21]
	weRatio := we[11] / we[21]
	if weRatio <= wdRatio {
		t.Errorf("weekend morning/evening ratio %v should exceed workday ratio %v", weRatio, wdRatio)
	}
}

func TestLockdownWorkdayLooksLikeWeekend(t *testing.T) {
	wd, we, ld := ResidentialWorkday(), ResidentialWeekend(), LockdownWorkday()
	// Distance in the 08:00-16:00 window: lockdown workday must be closer
	// to the weekend shape than the normal workday is.
	dist := func(a, b Profile) float64 {
		var s float64
		for h := 8; h <= 16; h++ {
			d := a[h]/a[21] - b[h]/b[21]
			s += d * d
		}
		return s
	}
	if dist(ld, we) >= dist(wd, we) {
		t.Errorf("lockdown workday (dist %v) should be closer to weekend than the normal workday (dist %v)",
			dist(ld, we), dist(wd, we))
	}
	// Lunch dip: hour 13 below both neighbours.
	if !(ld[13] < ld[11] && ld[13] < ld[15]) {
		t.Error("lockdown workday should show a lunchtime dip")
	}
}

func TestOfficeHoursShape(t *testing.T) {
	p := OfficeHours()
	if peak := peakHour(p); peak < 8 || peak > 17 {
		t.Errorf("office peak at %d, want business hours", peak)
	}
	if p[22] > 0.3 {
		t.Errorf("office evening load %v too high", p[22])
	}
}

func TestEntertainmentShift(t *testing.T) {
	pre, post := EveningEntertainment(), AllDayEntertainment()
	// During lockdown the daytime share of entertainment grows.
	if post[13] <= pre[13] {
		t.Errorf("lockdown entertainment daytime weight %v should exceed pre-lockdown %v", post[13], pre[13])
	}
}

func TestCampusVsRemote(t *testing.T) {
	campus, remote := CampusDay(), RemoteCampusAccess()
	if campus[3] > 0.15 {
		t.Errorf("campus night load %v should be tiny", campus[3])
	}
	if remote[3] <= campus[3] {
		t.Error("remote access should show more night activity than on-campus use (overseas students)")
	}
}

func TestMeanAndPeakHour(t *testing.T) {
	if Flat().Mean() != 1 {
		t.Errorf("Flat mean = %v, want 1", Flat().Mean())
	}
}

func TestBlendEndpointsAndClamping(t *testing.T) {
	a, b := ResidentialWorkday(), ResidentialWeekend()
	if Blend(a, b, 0) != a {
		t.Error("Blend(.., 0) should equal the first profile")
	}
	if Blend(a, b, 1) != b {
		t.Error("Blend(.., 1) should equal the second profile")
	}
	if Blend(a, b, -5) != a || Blend(a, b, 7) != b {
		t.Error("Blend should clamp its weight")
	}
}

// Property: blending stays within [0, 1] for any weight.
func TestBlendBoundsQuick(t *testing.T) {
	a, b := ResidentialWorkday(), LockdownWorkday()
	f := func(w float64) bool {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		p := Blend(a, b, w)
		for h := 0; h < 24; h++ {
			if p[h] < 0 || p[h] > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
