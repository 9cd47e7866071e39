package flowstore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSpanned feeds arbitrary bytes to the sealed-file reader. The
// seeds are a writer-produced sealed file, the same file never sealed
// (what a killed run leaves) and every shape of damageShapes. Whatever
// the input, opening and faulting must not panic, must not map a span
// reaching past the end of the file (a fault there is a SIGBUS, which
// would kill the fuzzer), and every span that is served must be row for
// row what was appended at that position.
func FuzzOpenSpanned(f *testing.F) {
	pristine, _ := sealedFile(f, f.TempDir(), "pristine", 3)
	raw, err := os.ReadFile(pristine)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	unsealed := append([]byte(nil), raw...)
	clear(unsealed[:headerSize])
	f.Add(unsealed[:len(unsealed)-3*indexEntrySize])
	for _, shape := range damageShapes {
		f.Add(shape.mutate(append([]byte(nil), raw...)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz"+SpannedExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenSpanned(path)
		if err != nil {
			return
		}
		defer sf.Close()
		for i, ref := range sf.Refs() {
			seg, err := sf.Span(ref)
			if err != nil {
				continue
			}
			if ref.Off+ref.Size > int64(len(data)) {
				t.Fatalf("span %d [%d, %d) served from a %d-byte file", i, ref.Off, ref.Off+ref.Size, len(data))
			}
			if i >= 3 {
				t.Fatalf("span %d served, only 3 were appended", i)
			}
			view, _ := seg.Batch()
			equalBatches(t, hourBatch(i), view)
			seg.Close()
		}
	})
}
