//go:build !linux

package flowstore

import "os"

// mapSpan on platforms without the mmap fast path reads the one span
// onto the heap; the column views then alias that buffer instead of a
// mapping. Spilling still bounds the cache's steady-state footprint —
// evicted entries hold no buffer at all — but a faulted-in span is
// heap-resident until it is evicted again.
func mapSpan(f *os.File, off int64, size int) (data []byte, mapped bool, err error) {
	return readSpan(f, off, size)
}

func unmapSpan(data []byte, mapped bool) error { return nil }

func adviseDontNeed(data []byte, mapped bool) {}
