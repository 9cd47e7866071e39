package timeseries

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 4})
	if len(e.sorted) != 4 {
		t.Fatalf("sample size = %d", len(e.sorted))
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.At(1)) || !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF should return NaN")
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if e.Quantile(0) != 10 || e.Quantile(1) != 50 {
		t.Error("extreme quantiles wrong")
	}
	if got := e.Quantile(0.5); got != 30 {
		t.Errorf("median = %v, want 30", got)
	}
	if got := e.Quantile(0.2); got != 10 {
		t.Errorf("q20 = %v, want 10", got)
	}
}

func TestECDFCurveAndValues(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if !sort.Float64sAreSorted(e.sorted) {
		t.Error("the sample should be sorted")
	}
	want := []float64{0, 1.0 / 3, 2.0 / 3, 1}
	for i, x := range []float64{0.5, 1.5, 2.5, 3.5} {
		if got := e.At(x); math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", x, got, want[i])
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if e.At(2) != 2.0/3 {
		t.Error("ECDF aliases its input slice")
	}
}

func TestShiftedRightOf(t *testing.T) {
	base := NewECDF([]float64{10, 20, 30, 40})
	higher := NewECDF([]float64{20, 30, 40, 50})
	probes := []float64{5, 15, 25, 35, 45, 55}
	if !higher.ShiftedRightOf(base, probes, 1e-9) {
		t.Error("higher sample should be shifted right of base")
	}
	if base.ShiftedRightOf(higher, probes, 1e-9) {
		t.Error("base should not be shifted right of higher")
	}
}

// Property: the ECDF is monotonically non-decreasing and bounded by [0,1].
func TestECDFMonotoneQuick(t *testing.T) {
	f := func(raw []uint16, probesRaw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v)
		}
		e := NewECDF(sample)
		probes := make([]float64, len(probesRaw))
		for i, v := range probesRaw {
			probes[i] = float64(v)
		}
		sort.Float64s(probes)
		prev := 0.0
		for _, x := range probes {
			fx := e.At(x)
			if fx < prev-1e-12 || fx < 0 || fx > 1 {
				return false
			}
			prev = fx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile(At(x)) <= x for sample members (nearest-rank inverse).
func TestECDFQuantileInverseQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v)
		}
		e := NewECDF(sample)
		for _, x := range sample {
			if e.Quantile(e.At(x)) > x {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
