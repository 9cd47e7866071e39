//go:build linux

package flowstore

import (
	"os"
	"syscall"
)

// mapSpan maps size bytes of the file at the page-aligned offset off,
// read-only. mmap failures (exotic filesystems, exhausted mappings) fall
// back to a heap read of the one span, so a span is never unreadable
// just because it cannot be mapped.
func mapSpan(f *os.File, off int64, size int) (data []byte, mapped bool, err error) {
	if size == 0 {
		return nil, false, nil
	}
	d, err := syscall.Mmap(int(f.Fd()), off, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return readSpan(f, off, size)
	}
	return d, true, nil
}

// unmapSpan releases a mapping created by mapSpan.
func unmapSpan(data []byte, mapped bool) error {
	if !mapped || data == nil {
		return nil
	}
	return syscall.Munmap(data)
}

// adviseDontNeed drops the mapping's resident pages; the next access
// faults them back in from the file. Advisory only — errors are ignored.
func adviseDontNeed(data []byte, mapped bool) {
	if mapped && len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_DONTNEED)
	}
}
