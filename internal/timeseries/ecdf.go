package timeseries

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample of
// float64 values, used for the link-utilisation analysis (Figure 5).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. The input is copied.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x): the fraction of sample values <= x. An empty ECDF
// returns NaN.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// First index with value > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (inverse CDF) of the sample using the
// nearest-rank method. q is clamped to [0, 1]; an empty ECDF returns NaN.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	// Guard against floating-point error when q was itself derived from a
	// rank (e.g. Quantile(At(x))): nudging down before the ceiling keeps
	// exact multiples of 1/n on their own rank.
	idx := int(math.Ceil(q*float64(len(e.sorted))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// ShiftedRightOf reports whether e is stochastically larger than other at
// every one of the probe points: F_e(x) <= F_other(x) for all probes (with
// tolerance eps). It is the property "the stage-2 curves are shifted to the
// right of the base-week curves" from Section 3.3.
func (e *ECDF) ShiftedRightOf(other *ECDF, probes []float64, eps float64) bool {
	for _, x := range probes {
		if e.At(x) > other.At(x)+eps {
			return false
		}
	}
	return true
}
