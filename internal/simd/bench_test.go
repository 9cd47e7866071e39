package simd

import "testing"

const benchN = 16384

func benchLanes() ([]uint8, []uint64) {
	lanes := make([]uint8, benchN)
	vals := make([]uint64, benchN)
	for i := range lanes {
		lanes[i] = uint8(i * 7)
		vals[i] = uint64(i)*2654435761 + 1
	}
	return lanes, vals
}

func BenchmarkKernelScatterAddUint64(b *testing.B) {
	lanes, vals := benchLanes()
	b.SetBytes(benchN * 9)
	b.ReportAllocs()
	b.ResetTimer()
	var acc [Lanes]uint64
	for i := 0; i < b.N; i++ {
		ScatterAddUint64(&acc, lanes, vals)
	}
	_ = acc
}

func BenchmarkKernelScatterCount(b *testing.B) {
	lanes, _ := benchLanes()
	b.SetBytes(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	var acc [Lanes]uint64
	for i := 0; i < b.N; i++ {
		ScatterCount(&acc, lanes)
	}
	_ = acc
}

func BenchmarkKernelScatterCountBytePairs(b *testing.B) {
	lanes, _ := benchLanes()
	lo := make([]uint8, benchN)
	for i := range lo {
		lo[i] = uint8(i % 3)
	}
	b.SetBytes(benchN * 2)
	b.ReportAllocs()
	b.ResetTimer()
	var acc [PairLanes]uint64
	for i := 0; i < b.N; i++ {
		ScatterCountBytePairs(&acc, lanes, lo)
	}
	_ = acc
}
