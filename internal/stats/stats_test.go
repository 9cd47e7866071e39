package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestMedianQuantile(t *testing.T) {
	if got := Quantile([]float64{5, 1, 3}, 0.5); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	// q outside [0,1] clamps.
	if got := Quantile(xs, -3); got != 1 {
		t.Errorf("clamped low quantile = %v, want 1", got)
	}
	if got := Quantile(xs, 2); got != 5 {
		t.Errorf("clamped high quantile = %v, want 5", got)
	}
}

func TestQuantileDoesNotModifyInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile modified its input: %v", xs)
	}
}

// Property: quantile output is always within [Min, Max] of the input.
func TestQuantileBoundsQuick(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		v := Quantile(xs, qq)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
