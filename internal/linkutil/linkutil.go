// Package linkutil computes the IXP member link-utilisation distributions
// of Section 3.3 (Figure 5) of "The Lockdown Effect" (IMC 2020): for each member port, the minimum, average and
// maximum utilisation over a day, compared between the pre-lockdown base
// week and a lockdown week as empirical CDFs.
package linkutil

import (
	"fmt"

	"lockdown/internal/timeseries"
)

// DayUtilization holds per-member utilisation summaries for one day. All
// three slices are indexed by member and hold fractions of port capacity in
// [0, 1].
type DayUtilization struct {
	Min []float64
	Avg []float64
	Max []float64
}

// Validate checks the slices are consistent (equal lengths, ordered
// min <= avg <= max, all within [0, 1]).
func (d DayUtilization) Validate() error {
	if len(d.Min) != len(d.Avg) || len(d.Avg) != len(d.Max) {
		return fmt.Errorf("linkutil: inconsistent member counts %d/%d/%d", len(d.Min), len(d.Avg), len(d.Max))
	}
	for i := range d.Min {
		if d.Min[i] < 0 || d.Max[i] > 1 || d.Min[i] > d.Avg[i] || d.Avg[i] > d.Max[i] {
			return fmt.Errorf("linkutil: member %d has inconsistent utilisation min=%v avg=%v max=%v",
				i, d.Min[i], d.Avg[i], d.Max[i])
		}
	}
	return nil
}

// Members returns the number of member ports described.
func (d DayUtilization) Members() int { return len(d.Avg) }

// ECDFs returns the three empirical CDFs (minimum, average, maximum link
// usage), the curves plotted in Figure 5.
func (d DayUtilization) ECDFs() (min, avg, max *timeseries.ECDF) {
	return timeseries.NewECDF(d.Min), timeseries.NewECDF(d.Avg), timeseries.NewECDF(d.Max)
}

// Comparison compares the utilisation of a base day against a lockdown
// day.
type Comparison struct {
	Base  DayUtilization
	Stage DayUtilization
}

// CurvePoint is one evaluated point of an ECDF curve: the fraction of
// member ports with utilisation at or below Utilization.
type CurvePoint struct {
	Utilization float64 // relative to physical capacity, 0..1
	Fraction    float64
}

// Curves evaluates the six ECDF curves (base/stage × min/avg/max) at the
// given utilisation probes. Keys are "base-min", "base-avg", "base-max",
// "stage-min", "stage-avg", "stage-max".
func (c Comparison) Curves(probes []float64) map[string][]CurvePoint {
	out := make(map[string][]CurvePoint, 6)
	add := func(key string, e *timeseries.ECDF) {
		pts := make([]CurvePoint, len(probes))
		for i, p := range probes {
			pts[i] = CurvePoint{Utilization: p, Fraction: e.At(p)}
		}
		out[key] = pts
	}
	bMin, bAvg, bMax := c.Base.ECDFs()
	sMin, sAvg, sMax := c.Stage.ECDFs()
	add("base-min", bMin)
	add("base-avg", bAvg)
	add("base-max", bMax)
	add("stage-min", sMin)
	add("stage-avg", sAvg)
	add("stage-max", sMax)
	return out
}

// DefaultProbes returns utilisation probes at 1%, 10%, 20%, ... 100%, the
// x-axis ticks of Figure 5.
func DefaultProbes() []float64 {
	out := []float64{0.01}
	for p := 0.1; p <= 1.0001; p += 0.1 {
		out = append(out, p)
	}
	return out
}

// ShiftedRight reports whether every stage-week curve lies at or to the
// right of its base-week counterpart within tolerance eps, and at least one
// lies right of it by more than eps at some probe (the paper's finding that
// "all curves are shifted to the right"): identical curves are not shifted.
func (c Comparison) ShiftedRight(probes []float64, eps float64) bool {
	bMin, bAvg, bMax := c.Base.ECDFs()
	sMin, sAvg, sMax := c.Stage.ECDFs()
	moved := false
	for _, p := range [][2]*timeseries.ECDF{{sMin, bMin}, {sAvg, bAvg}, {sMax, bMax}} {
		stage, base := p[0], p[1]
		if !stage.ShiftedRightOf(base, probes, eps) {
			return false
		}
		for _, x := range probes {
			moved = moved || stage.At(x) < base.At(x)-eps
		}
	}
	return moved
}

// MedianShift returns how much the median of the average utilisation moved
// between the base day and the stage day (positive = more utilised).
func (c Comparison) MedianShift() float64 {
	_, bAvg, _ := c.Base.ECDFs()
	_, sAvg, _ := c.Stage.ECDFs()
	return sAvg.Quantile(0.5) - bAvg.Quantile(0.5)
}
