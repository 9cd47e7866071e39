package simd

import (
	"testing"
	"testing/quick"
)

// Scalar reference implementations: the one-line obvious loops every
// kernel must match exactly, bit for bit, over full value ranges.

func refScatterAddUint64(acc *[Lanes]uint64, lanes []uint8, vals []uint64) {
	n := min(len(lanes), len(vals))
	for i := 0; i < n; i++ {
		acc[lanes[i]] += vals[i]
	}
}

func refScatterCount(acc *[Lanes]uint64, lanes []uint8) {
	for _, l := range lanes {
		acc[l]++
	}
}

func refScatterCountBytePairs(acc *[PairLanes]uint64, hi, lo []uint8) {
	n := min(len(hi), len(lo))
	for i := 0; i < n; i++ {
		acc[int(hi[i]&15)<<8|int(lo[i])]++
	}
}

func quickCfg(t *testing.T) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: 500}
}

func TestScatterAddUint64Quick(t *testing.T) {
	f := func(lanes []uint8, vals []uint64) bool {
		var got, want [Lanes]uint64
		ScatterAddUint64(&got, lanes, vals)
		refScatterAddUint64(&want, lanes, vals)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCountQuick(t *testing.T) {
	f := func(lanes []uint8) bool {
		var got, want [Lanes]uint64
		ScatterCount(&got, lanes)
		refScatterCount(&want, lanes)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestScatterCountBytePairsQuick(t *testing.T) {
	f := func(hi, lo []uint8) bool {
		var got, want [PairLanes]uint64
		ScatterCountBytePairs(&got, hi, lo)
		refScatterCountBytePairs(&want, hi, lo)
		return got == want
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestUint64ExactnessPastFloatBoundary confirms the integer kernels stay
// exact where float64 would round.
func TestUint64ExactnessPastFloatBoundary(t *testing.T) {
	const maxExact = uint64(1) << 53
	vals := []uint64{maxExact, 1, 1, 1}
	lanes := []uint8{7, 7, 7, 7}
	var acc [Lanes]uint64
	ScatterAddUint64(&acc, lanes, vals)
	if acc[7] != maxExact+3 {
		t.Fatalf("ScatterAddUint64 lane 7 = %d, want %d", acc[7], maxExact+3)
	}
}

// TestMismatchedLengths pins the clamp-to-shorter contract.
func TestMismatchedLengths(t *testing.T) {
	lanes := []uint8{1, 2, 3, 4, 5}
	vals := []uint64{10, 20, 30}

	var acc [Lanes]uint64
	ScatterAddUint64(&acc, lanes, vals)
	if acc[1] != 10 || acc[2] != 20 || acc[3] != 30 || acc[4] != 0 || acc[5] != 0 {
		t.Fatalf("ScatterAddUint64 mismatched lengths: %v", acc[:6])
	}

	var pacc [PairLanes]uint64
	ScatterCountBytePairs(&pacc, []uint8{1, 2, 3}, []uint8{9})
	if pacc[1<<8|9] != 1 || pacc[2<<8] != 0 {
		t.Fatalf("ScatterCountBytePairs mismatched lengths miscounted")
	}
}

// TestPairHiMasking: hi lanes above 15 fold into hi&15 — the kernel must
// not index out of bounds and must agree with the reference on the fold.
func TestPairHiMasking(t *testing.T) {
	var got, want [PairLanes]uint64
	hi := []uint8{0, 15, 16, 31, 255}
	lo := []uint8{0, 255, 1, 2, 3}
	ScatterCountBytePairs(&got, hi, lo)
	refScatterCountBytePairs(&want, hi, lo)
	if got != want {
		t.Fatal("hi-mask fold mismatch vs reference")
	}
	if got[0] != 1 || got[15<<8|255] != 1 || got[0<<8|1] != 1 || got[15<<8|2] != 1 || got[15<<8|3] != 1 {
		t.Fatalf("unexpected fold positions: %v", got[:16])
	}
}

func TestSelect(t *testing.T) {
	if Select8(true, 200, 100) != 200 || Select8(false, 200, 100) != 100 {
		t.Fatal("Select8 broken")
	}
	f8 := func(cond bool, a, b uint8) bool {
		want := b
		if cond {
			want = a
		}
		return Select8(cond, a, b) == want
	}
	if err := quick.Check(f8, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyAndTiny covers the unrolled tail handling at every small size.
func TestEmptyAndTiny(t *testing.T) {
	for n := 0; n <= 9; n++ {
		v64 := make([]uint64, n)
		lanes := make([]uint8, n)
		for i := 0; i < n; i++ {
			v64[i] = uint64(i)*1234567 + 1
			lanes[i] = uint8(i * 37)
		}
		var got, want [Lanes]uint64
		ScatterAddUint64(&got, lanes, v64)
		refScatterAddUint64(&want, lanes, v64)
		if got != want {
			t.Fatalf("ScatterAddUint64 n=%d", n)
		}
	}
}
