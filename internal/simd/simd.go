// Package simd holds the scalar-coded, vector-shaped kernels behind the
// hot column scans of the experiment suite: dense scatter accumulation
// over uint8 lane arrays.
//
// There is no unsafe and no assembly here, on purpose. The gc compiler
// does not auto-vectorize loops, but it rewards exactly one loop shape:
// straight-line bodies with no branches, no calls, and no bounds checks,
// over contiguous slices. Every kernel in this package is written in that
// shape — table loads instead of compares, and arithmetic masks instead
// of data-dependent branches — so the instruction selection improves
// transparently with GOAMD64 (v1 baseline vs v3's SSE4.2/AVX/BMI era) and
// the loops stay at the memory bandwidth the container allows.
//
// Accumulator arrays are fixed-size (Lanes entries) and passed by array
// pointer: indexing them with a uint8 lane needs no bounds check, the
// arrays live on the caller's stack, and none of the kernels allocate —
// the benchgate gates pin allocs/op at 0.
//
// Exactness (the suite's bit-identity contract leans on it): every sum
// and count accumulates in uint64. Integer addition is associative at any
// magnitude, so partial sums merge exactly under every chunk grouping —
// unlike floating point, which starts rounding once a sum crosses 2^53 (a
// busy week of byte volume does).
package simd

// Lanes is the size of every dense accumulator array. A lane index is a
// uint8, so Lanes = 256 makes acc[lane] provably in bounds.
const Lanes = 256

// PairLanes sizes the accumulator of ScatterCountBytePairs: 16 hi-lanes
// by 256 lo-lanes (see there for the masking that makes it provable).
const PairLanes = 16 * 256

// Tile is the row-tile length consumers use when staging lane indices:
// classifiers fill a [Tile]uint8 scratch array per slice of rows, then
// hand it to the scatter kernels. 4 KiB of lanes plus 32 KiB of values
// stay resident in L1 between the classification pass and the
// accumulation pass.
const Tile = 4096

// ScatterAddUint64 performs acc[lanes[i]] += vals[i] for every i.
// lanes and vals must have equal length; extra vals elements are ignored.
func ScatterAddUint64(acc *[Lanes]uint64, lanes []uint8, vals []uint64) {
	if len(vals) < len(lanes) {
		lanes = lanes[:len(vals)]
	}
	vals = vals[:len(lanes)]
	for i, l := range lanes {
		acc[l] += vals[i]
	}
}

// ScatterCount performs acc[lanes[i]]++ for every i.
func ScatterCount(acc *[Lanes]uint64, lanes []uint8) {
	for _, l := range lanes {
		acc[l]++
	}
}

// ScatterCountBytePairs performs acc[(hi[i]&15)<<8|lo[i]]++ for every i:
// a two-dimensional count over a small hi lane (0-15, masked so the
// index is provably below PairLanes) and a full byte lo lane. The
// class×direction connection counts use it with class as hi and the raw
// direction byte as lo.
func ScatterCountBytePairs(acc *[PairLanes]uint64, hi, lo []uint8) {
	if len(lo) < len(hi) {
		hi = hi[:len(lo)]
	}
	lo = lo[:len(hi)]
	for i, h := range hi {
		acc[int(h&15)<<8|int(lo[i])]++
	}
}

// Select8 returns a when cond is true and b otherwise, compiled as a
// conditional move (no branch).
func Select8(cond bool, a, b uint8) uint8 {
	m := -b2u8(cond)
	return (a & m) | (b &^ m)
}

// b2u8 converts a bool to 0/1 without a branch (the compiler emits SETcc).
func b2u8(b bool) uint8 {
	var v uint8
	if b {
		v = 1
	}
	return v
}
