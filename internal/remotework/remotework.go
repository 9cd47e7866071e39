// Package remotework implements the remote-work AS analysis of Section 3.4
// (Figure 6) of "The Lockdown Effect" (IMC 2020): grouping ASes by their workday/weekend traffic ratio and
// relating each AS's total traffic shift between a February base week and a
// March lockdown week to its shift in traffic exchanged with eyeball
// (residential) networks.
package remotework

import (
	"math"
	"sort"
)

// ASWeek is one AS's traffic during one analysis week, attributed by the
// data source (the ISP's full view including transit).
type ASWeek struct {
	// Total is the AS's overall traffic volume in the week.
	Total float64
	// Residential is the portion exchanged with eyeball networks.
	Residential float64
	// Workday and Weekend are the AS's average daily volumes on workdays
	// and weekend days of the week, used for the ratio grouping.
	Workday float64
	Weekend float64
}

// Group is the workday/weekend dominance class of an AS (Section 3.4
// builds three groups and focuses on the workday-dominated one).
type Group int

// Groups.
const (
	GroupWorkdayDominant Group = iota
	GroupBalanced
	GroupWeekendDominant
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case GroupWorkdayDominant:
		return "workday-dominant"
	case GroupWeekendDominant:
		return "weekend-dominant"
	default:
		return "balanced"
	}
}

// GroupOf classifies an AS by its workday/weekend volume ratio. Ratios
// above 1.3 are workday-dominant, below 0.77 weekend-dominant, otherwise
// balanced. A zero weekend volume with non-zero workday volume counts as
// workday-dominant.
func GroupOf(workday, weekend float64) Group {
	if weekend == 0 {
		if workday == 0 {
			return GroupBalanced
		}
		return GroupWorkdayDominant
	}
	ratio := workday / weekend
	switch {
	case ratio > 1.3:
		return GroupWorkdayDominant
	case ratio < 1/1.3:
		return GroupWeekendDominant
	default:
		return GroupBalanced
	}
}

// Quadrant describes where a scatter point falls in Figure 6.
type Quadrant string

// Figure 6 quadrants.
const (
	QuadrantBothUp       Quadrant = "total increase, residential increase"
	QuadrantBothDown     Quadrant = "total decrease, residential decrease"
	QuadrantTotalDownRes Quadrant = "total decrease, residential increase"
	QuadrantTotalUpRes   Quadrant = "total increase, residential decrease"
)

// Point is one AS in the Figure 6 scatter plot. The differences are
// normalised to [-1, 1] using (lock-base)/(lock+base), so -1 means the
// traffic vanished and +1 means it appeared from nothing.
type Point struct {
	ASN             uint32
	Group           Group
	DiffTotal       float64
	DiffResidential float64
	Quadrant        Quadrant
}

// normDiff returns (b-a)/(b+a), clamped to [-1, 1]; zero when both are
// zero.
func normDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	d := (b - a) / (b + a)
	if d < -1 {
		d = -1
	}
	if d > 1 {
		d = 1
	}
	return d
}

func quadrantOf(total, residential float64) Quadrant {
	switch {
	case total >= 0 && residential >= 0:
		return QuadrantBothUp
	case total < 0 && residential < 0:
		return QuadrantBothDown
	case total < 0:
		return QuadrantTotalDownRes
	default:
		return QuadrantTotalUpRes
	}
}

// Result is the full Section 3.4 analysis output.
type Result struct {
	Points []Point
	// Correlation is the Pearson correlation between the total and the
	// residential traffic shifts across all ASes (the paper observes a
	// clear positive correlation).
	Correlation float64
}

// Analyze compares the base week and the lockdown week per AS. ASes absent
// from either week are skipped.
func Analyze(base, lockdown map[uint32]ASWeek) Result {
	asns := make([]uint32, 0, len(base))
	for asn := range base {
		if _, ok := lockdown[asn]; ok {
			asns = append(asns, asn)
		}
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })

	var res Result
	var xs, ys []float64
	for _, asn := range asns {
		b, l := base[asn], lockdown[asn]
		dt := normDiff(b.Total, l.Total)
		dr := normDiff(b.Residential, l.Residential)
		res.Points = append(res.Points, Point{
			ASN:             asn,
			Group:           GroupOf(b.Workday, b.Weekend),
			DiffTotal:       dt,
			DiffResidential: dr,
			Quadrant:        quadrantOf(dt, dr),
		})
		xs = append(xs, dt)
		ys = append(ys, dr)
	}
	res.Correlation = pearson(xs, ys)
	return res
}

// pearson is a local correlation helper that returns 0 when undefined.
func pearson(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// QuadrantCounts tallies how many ASes fall into each quadrant.
func (r Result) QuadrantCounts() map[Quadrant]int {
	out := make(map[Quadrant]int)
	for _, p := range r.Points {
		out[p.Quadrant]++
	}
	return out
}
