package synth

import (
	"math/rand"
	"time"
)

// MemberLinkStats summarises one IXP member port's utilisation over a day,
// the unit of the link-utilisation ECDF in Figure 5.
type MemberLinkStats struct {
	// Member is the member's index within the model.
	Member int
	// CapacityGbps is the member's provisioned port capacity.
	CapacityGbps float64
	// Min, Avg and Max are the member's minimum, average and maximum
	// utilisation over the day, as a fraction of capacity in [0, 1].
	Min, Avg, Max float64
}

// MemberUtilization models the per-member port utilisation of an IXP
// vantage point for the given day. Each member carries a Zipf-distributed
// share of the platform's total traffic on a port provisioned with a
// member-specific headroom; as total traffic grows during the lockdown the
// whole utilisation distribution shifts right (Section 3.3).
//
// It returns nil for vantage points without a member model (Members == 0
// in the configuration).
func (g *Generator) MemberUtilization(day time.Time) []MemberLinkStats {
	n := g.cfg.Members
	if n <= 0 {
		return nil
	}
	day = day.UTC().Truncate(24 * time.Hour)

	// Hourly platform totals for the day, in Gbps.
	var totalGbps [24]float64
	for h := 0; h < 24; h++ {
		bytes := g.HourlyVolume(day.Add(time.Duration(h) * time.Hour))
		totalGbps[h] = bytes * 8 / 3600 / 1e9
	}

	shares := zipfWeights(n)
	rng := rand.New(rand.NewSource(g.cfg.Seed ^ 0x5eed))
	platformPeak := g.baselinePeakGbps()
	stats := make([]MemberLinkStats, 0, n)
	for i := 0; i < n; i++ {
		// Baseline peak rate of this member (pre-lockdown February
		// weekday), used to size the port with 30-75% headroom.
		peakBase := platformPeak * shares[i]
		headroom := 1.3 + rng.Float64()*1.5
		capacity := nextPortSize(peakBase * headroom)

		min, max, sum := 1.0, 0.0, 0.0
		for h := 0; h < 24; h++ {
			u := totalGbps[h] * shares[i] / capacity
			if u > 1 {
				u = 1
			}
			if u < min {
				min = u
			}
			if u > max {
				max = u
			}
			sum += u
		}
		stats = append(stats, MemberLinkStats{
			Member:       i,
			CapacityGbps: capacity,
			Min:          min,
			Avg:          sum / 24,
			Max:          max,
		})
	}
	return stats
}

// baselinePeakGbps returns the platform's peak hourly rate during the
// pre-lockdown reference day (Wednesday, February 19, 2020).
func (g *Generator) baselinePeakGbps() float64 {
	ref := time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)
	peak := 0.0
	for h := 0; h < 24; h++ {
		bytes := g.HourlyVolume(ref.Add(time.Duration(h) * time.Hour))
		gbps := bytes * 8 / 3600 / 1e9
		if gbps > peak {
			peak = gbps
		}
	}
	if peak == 0 {
		peak = 1
	}
	return peak
}

// nextPortSize rounds a required rate up to the next standard Ethernet
// port size (in Gbps), the granularity at which IXP members provision
// capacity.
func nextPortSize(gbps float64) float64 {
	sizes := []float64{1, 10, 25, 40, 100, 200, 400, 800, 1600, 3200}
	for _, s := range sizes {
		if gbps <= s {
			return s
		}
	}
	return sizes[len(sizes)-1]
}
