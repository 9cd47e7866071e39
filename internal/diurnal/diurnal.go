// Package diurnal provides parametric hour-of-day load profiles. The
// synthetic traffic generator composes them into vantage-point traffic, and
// the pattern classifier's tests use them as ground truth.
//
// A Profile is a 24-element weight vector normalised so its maximum is 1.
// The shapes encode the qualitative observations of "The Lockdown Effect"
// (IMC 2020): residential
// workday traffic peaks in the evening, weekend traffic gains momentum at
// 09:00-10:00 already, and the lockdown workday pattern looks like a
// weekend with a small lunch dip and a late-evening spike.
package diurnal

import "math"

// Profile is a relative load weight per hour of day (0-23), normalised so
// that the maximum weight is 1.
type Profile [24]float64

// normalise scales the profile so its maximum is 1. A zero profile is
// returned unchanged.
func normalise(p Profile) Profile {
	max := 0.0
	for _, v := range p {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return p
	}
	for i := range p {
		p[i] /= max
	}
	return p
}

// Mean returns the average weight across the day.
func (p Profile) Mean() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s / 24
}

// Blend interpolates between two profiles: w=0 yields a, w=1 yields b.
// The result is re-normalised to a maximum of 1.
func Blend(a, b Profile, w float64) Profile {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	var out Profile
	for h := 0; h < 24; h++ {
		out[h] = a[h]*(1-w) + b[h]*w
	}
	return normalise(out)
}

// gaussianBump adds a smooth bump centred at hour c with width sigma and
// height amp to the profile.
func gaussianBump(p *Profile, c, sigma, amp float64) {
	for h := 0; h < 24; h++ {
		d := float64(h) - c
		p[h] += amp * math.Exp(-d*d/(2*sigma*sigma))
	}
}

// ResidentialWorkday is the pre-lockdown workday pattern of a residential
// network: a deep night trough, moderate daytime use and a pronounced
// evening peak around 20:00-21:00 (Figure 2a, Feb 19).
func ResidentialWorkday() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.25 // base load
	}
	gaussianBump(&p, 9, 4.0, 0.20) // modest daytime activity
	gaussianBump(&p, 20.5, 2.4, 0.75)
	p[1], p[2], p[3], p[4] = 0.16, 0.13, 0.12, 0.13
	return normalise(p)
}

// ResidentialWeekend is the weekend pattern: activity ramps up at
// 09:00-10:00 and stays high all day, with an evening peak (Figure 2a,
// Feb 22).
func ResidentialWeekend() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.22
	}
	gaussianBump(&p, 11, 3.5, 0.55)
	gaussianBump(&p, 16, 3.5, 0.50)
	gaussianBump(&p, 20.5, 2.5, 0.72)
	p[2], p[3], p[4], p[5] = 0.14, 0.12, 0.12, 0.14
	return normalise(p)
}

// LockdownWorkday is the workday pattern after the lockdown: traffic rises
// early in the morning, shows a small dip at lunchtime, grows through the
// afternoon and spikes late in the evening (Figure 2a, Mar 25).
func LockdownWorkday() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.24
	}
	gaussianBump(&p, 10, 2.8, 0.52)
	gaussianBump(&p, 15.5, 3.0, 0.50)
	gaussianBump(&p, 21, 2.2, 0.95)
	// Lunch dip.
	p[13] *= 0.90
	p[12] *= 0.93
	p[2], p[3], p[4], p[5] = 0.15, 0.13, 0.13, 0.15
	return normalise(p)
}

// OfficeHours is the pattern of enterprise, conferencing and educational
// traffic: concentrated between 08:00 and 18:00 with a lunch dip and very
// little evening or night activity.
func OfficeHours() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.06
	}
	gaussianBump(&p, 10.5, 2.2, 0.85)
	gaussianBump(&p, 15, 2.2, 0.80)
	p[13] *= 0.85
	return normalise(p)
}

// EveningEntertainment is the pattern of video-on-demand and gaming before
// the lockdown: strongly evening-centric.
func EveningEntertainment() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.15
	}
	gaussianBump(&p, 21, 2.6, 0.9)
	gaussianBump(&p, 17, 3.0, 0.3)
	p[3], p[4], p[5] = 0.08, 0.07, 0.08
	return normalise(p)
}

// AllDayEntertainment is the lockdown-era entertainment pattern: content is
// consumed at any time of the day (Section 5, gaming/VoD observations).
func AllDayEntertainment() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.28
	}
	gaussianBump(&p, 12, 4.5, 0.42)
	gaussianBump(&p, 21, 3.0, 0.85)
	p[4], p[5] = 0.18, 0.18
	return normalise(p)
}

// CampusDay is the on-campus pattern of the educational network: almost all
// activity between 08:00 and 20:00 with lecture-time peaks.
func CampusDay() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.05
	}
	gaussianBump(&p, 11, 2.5, 0.9)
	gaussianBump(&p, 16, 2.5, 0.75)
	return normalise(p)
}

// RemoteCampusAccess is the pattern of remote access to campus resources
// after the closure: working hours dominate but a long tail reaches into
// the late evening and early morning (overseas students, Section 7).
func RemoteCampusAccess() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 0.18
	}
	gaussianBump(&p, 11, 3.0, 0.65)
	gaussianBump(&p, 17, 3.5, 0.50)
	gaussianBump(&p, 22, 3.0, 0.35)
	gaussianBump(&p, 3, 2.5, 0.22) // overseas time zones
	return normalise(p)
}

// Flat is a uniform profile, useful for always-on background traffic.
func Flat() Profile {
	var p Profile
	for h := 0; h < 24; h++ {
		p[h] = 1
	}
	return p
}
