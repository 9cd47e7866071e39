package flowstore

import (
	"encoding/binary"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
)

// hourBatch is the i-th of the distinct batches the sealed-file tests
// append.
func hourBatch(i int) *flowrec.Batch { return testBatch(50+i*13, int64(i)+100) }

// sealedFile appends n distinct batches to a new span file in dir, seals
// and closes it, and returns its path and the references Append gave.
func sealedFile(t testing.TB, dir, name string, n int) (string, []SpanRef) {
	t.Helper()
	sf, err := Create(filepath.Join(dir, name+SpannedExt))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	refs := make([]SpanRef, n)
	for i := range refs {
		if refs[i], err = sf.Append(hourBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Seal(); err != nil {
		t.Fatal(err)
	}
	return sf.Path(), refs
}

func TestSpannedRoundTrip(t *testing.T) {
	path, refs := sealedFile(t, t.TempDir(), "all", 5)
	sf, err := OpenSpanned(path)
	if err != nil {
		t.Fatalf("OpenSpanned: %v", err)
	}
	defer sf.Close()
	got := sf.Refs()
	if len(got) != 5 {
		t.Fatalf("%d spans in the index, want 5", len(got))
	}
	for i, ref := range got {
		if ref != refs[i] {
			t.Fatalf("index entry %d = %+v, Append returned %+v", i, ref, refs[i])
		}
		if ref.Off%spanAlign != 0 {
			t.Fatalf("span %d at %d is not page-aligned", i, ref.Off)
		}
		seg, view, _ := faultBatch(t, sf, ref)
		equalBatches(t, hourBatch(i), view)
		seg.Evicted() // advisory, page-aligned by format
		equalBatches(t, hourBatch(i), view)
	}
	if !sf.Sealed() {
		t.Fatal("an opened file must report sealed")
	}
	if _, err := sf.Append(hourBatch(0)); err != ErrSealed {
		t.Fatalf("Append to an opened file = %v, want ErrSealed", err)
	}
	beyond := got[4]
	beyond.Off += 1 << 30
	if _, err := sf.Span(beyond); err == nil {
		t.Fatal("a span beyond the end of the file must be rejected")
	}
	offGrid := got[1]
	offGrid.Off += 64
	if _, err := sf.Span(offGrid); err == nil {
		t.Fatal("a span off the page grid must be rejected")
	}
}

// resign recomputes the index and header CRCs after a targeted field
// mutation, so validation reaches the check under test instead of
// stopping at a checksum.
func resign(d []byte) {
	indexOff := binary.LittleEndian.Uint64(d[16:24])
	if indexOff < uint64(len(d)) {
		binary.LittleEndian.PutUint64(d[32:40], crc64.Checksum(d[indexOff:], crcTable))
	}
	clear(d[40:48])
	binary.LittleEndian.PutUint64(d[40:48], crc64.Checksum(d[:headerSize], crcTable))
}

// damageShape is one way to damage the image of a sealed three-span
// file. badSpan is the span that then fails at Span while the file still
// opens and its other spans serve; -1 means OpenSpanned rejects the file,
// with an error containing refusal when that is set.
type damageShape struct {
	mutate  func(d []byte) []byte
	badSpan int
	refusal string
}

// damageShapes is shared by the corruption test, the failure-metrics
// audit and the fuzzer's seed corpus.
var damageShapes = map[string]damageShape{
	"empty":          {func(d []byte) []byte { return nil }, -1, ""},
	"truncated-head": {func(d []byte) []byte { return d[:64] }, -1, ""},
	"bad-magic":      {func(d []byte) []byte { d[0] ^= 0xff; return d }, -1, ""},
	"bad-version": {func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[4:8], 99)
		resign(d)
		return d
	}, -1, ""},
	// A sealed file of the previous format version (17-byte address
	// slots), checksums and all, refused by the version check.
	"old-version": {func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[4:8], spanVersion-1)
		resign(d)
		return d
	}, -1, "unsupported version 4 (want 5)"},
	"header-bitflip": {func(d []byte) []byte { d[9] ^= 0x01; return d }, -1, ""},
	"zero-spans": {func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[8:16], 0)
		resign(d)
		return d
	}, -1, ""},
	"implausible-spans": {func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[8:16], maxSpans+1)
		resign(d)
		return d
	}, -1, ""},
	"index-geometry": {func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[24:32], 7)
		resign(d)
		return d
	}, -1, ""},
	"index-bitflip": {func(d []byte) []byte {
		d[binary.LittleEndian.Uint64(d[16:24])+3] ^= 0x40
		return d
	}, -1, ""},
	"row-count-bumps": {func(d []byte) []byte {
		// Entry 0 claims one row more than its size lays out.
		d[binary.LittleEndian.Uint64(d[16:24])+16]++
		resign(d)
		return d
	}, -1, ""},
	// The column set of an index entry, re-signed so the entry check is
	// what rejects it: a bit no column has (inside and beyond the 16 a
	// Columns holds), a set the span's size is not the layout of, and no
	// column at all for a span with rows.
	"cols-bit-15":   {setCols(0, func(c uint64) uint64 { return c | 1<<15 }), -1, ""},
	"cols-bit-40":   {setCols(0, func(c uint64) uint64 { return c | 1<<40 }), -1, ""},
	"cols-narrower": {setCols(1, func(c uint64) uint64 { return c &^ uint64(flowrec.ColPackets) }), -1, ""},
	"cols-empty":    {setCols(2, func(uint64) uint64 { return 0 }), -1, ""},
	// Header intact, file cut inside the spans or inside the index: the
	// index must be the file's tail, so both are rejected at open.
	"truncated-spans": {func(d []byte) []byte { return d[:headerSize+100] }, -1, ""},
	"truncated-data":  {func(d []byte) []byte { return d[:len(d)-8] }, -1, ""},
	// Span-level damage: header and index are intact, so the file opens
	// and only the damaged span fails, at fault time.
	"span-bitflip": {func(d []byte) []byte { d[headerSize+5] ^= 0x10; return d }, 0, ""},
	"data-bitflip": {func(d []byte) []byte {
		d[binary.LittleEndian.Uint64(d[16:24])-spanAlign+32] ^= 0x80
		return d
	}, 2, ""},
}

// setCols edits the column-set field of index entry k and re-signs.
func setCols(k int, edit func(cols uint64) uint64) func(d []byte) []byte {
	return func(d []byte) []byte {
		field := d[binary.LittleEndian.Uint64(d[16:24])+uint64(k)*indexEntrySize+32:]
		binary.LittleEndian.PutUint64(field, edit(binary.LittleEndian.Uint64(field)))
		resign(d)
		return d
	}
}

// damagedFile writes the shape's damage of a sealed three-span file.
func damagedFile(t *testing.T, shape damageShape) string {
	t.Helper()
	pristine, _ := sealedFile(t, t.TempDir(), "pristine", 3)
	raw, err := os.ReadFile(pristine)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad"+SpannedExt)
	if err := os.WriteFile(path, shape.mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpannedCorruption asserts every damaged-sealed-file shape is
// rejected — at OpenSpanned for header/index damage, at Span for span
// damage — and that span damage stays span-granular.
func TestSpannedCorruption(t *testing.T) {
	for name, shape := range damageShapes {
		t.Run(name, func(t *testing.T) {
			sf, err := OpenSpanned(damagedFile(t, shape))
			if shape.badSpan < 0 {
				if err == nil {
					sf.Close()
					t.Fatalf("OpenSpanned accepted a %s file", name)
				}
				if !strings.Contains(err.Error(), shape.refusal) {
					t.Errorf("OpenSpanned = %v, want an error containing %q", err, shape.refusal)
				}
				return
			}
			if err != nil {
				t.Fatalf("OpenSpanned must accept span-level damage lazily: %v", err)
			}
			defer sf.Close()
			for i, ref := range sf.Refs() {
				if i == shape.badSpan {
					if _, err := sf.Span(ref); err == nil {
						t.Fatalf("Span %d accepted a corrupted span", i)
					}
					continue
				}
				_, view, _ := faultBatch(t, sf, ref) // fatal if the intact span is rejected
				equalBatches(t, hourBatch(i), view)
			}
		})
	}
}

// TestOpenFailureMetrics audits that every rejection shape — not just
// some — bumps open_failures exactly once and never span_faults.
func TestOpenFailureMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	m := metricsPtr.Load()

	check := func(t *testing.T, path string, badSpan int) {
		fails, faults := m.openFails.Value(), m.spanFaults.Value()
		sf, err := OpenSpanned(path)
		if err == nil {
			defer sf.Close()
			if badSpan < 0 {
				t.Fatal("OpenSpanned accepted the file")
			}
			if _, err = sf.Span(sf.Refs()[badSpan]); err == nil {
				t.Fatalf("Span %d accepted a corrupted span", badSpan)
			}
		}
		if got := m.openFails.Value(); got != fails+1 {
			t.Fatalf("open_failures %d -> %d, want +1", fails, got)
		}
		if got := m.spanFaults.Value(); got != faults {
			t.Fatalf("span_faults moved on a rejection (%d -> %d)", faults, got)
		}
	}
	t.Run("missing", func(t *testing.T) {
		check(t, filepath.Join(t.TempDir(), "absent"+SpannedExt), -1)
	})
	for name, shape := range damageShapes {
		t.Run(name, func(t *testing.T) { check(t, damagedFile(t, shape), shape.badSpan) })
	}
}

// TestSpannedMetricsSuccessPath: the write counters account for every
// byte a file holds that is not an alignment hole, and a clean fault
// bumps span_faults only.
func TestSpannedMetricsSuccessPath(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)
	m := metricsPtr.Load()

	path, refs := sealedFile(t, t.TempDir(), "all", 3)
	if m.writes.Value() != 3 {
		t.Fatalf("writes = %d, want 3 (one per span)", m.writes.Value())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	holes := int64(0)
	for _, ref := range refs {
		holes += alignSpan(ref.Size) - ref.Size
	}
	if got := m.writeBytes.Value(); got != fi.Size()-holes {
		t.Fatalf("write_bytes = %d, want the file's %d bytes less %d of alignment holes", got, fi.Size(), holes)
	}

	sf, err := OpenSpanned(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for _, ref := range refs[:2] {
		seg, err := sf.Span(ref)
		if err != nil {
			t.Fatal(err)
		}
		seg.Close()
	}
	if m.spanFaults.Value() != 2 || m.openFails.Value() != 0 {
		t.Fatalf("span_faults = %d, open_failures = %d, want 2 and 0", m.spanFaults.Value(), m.openFails.Value())
	}
}

// TestUnsealedFileIsRefused: a killed run leaves its last span file
// unsealed, and OpenSpanned refuses it.
func TestUnsealedFileIsRefused(t *testing.T) {
	unsealed, err := Create(filepath.Join(t.TempDir(), "spill-000001"+SpannedExt))
	if err != nil {
		t.Fatal(err)
	}
	defer unsealed.Close()
	if _, err := unsealed.Append(hourBatch(0)); err != nil {
		t.Fatal(err)
	}
	if sf, err := OpenSpanned(unsealed.Path()); err == nil {
		sf.Close()
		t.Fatal("OpenSpanned accepted a file its writer never sealed")
	}
}

// TestSpannedPortableFallback: spans of a sealed file decoded through
// the per-element fallback (as on a big-endian host) round-trip
// identically.
func TestSpannedPortableFallback(t *testing.T) {
	orig := hostLE
	defer func() { hostLE = orig }()

	path, _ := sealedFile(t, t.TempDir(), "all", 2)
	hostLE = false // force the decode-copy path inside span views
	sf, err := OpenSpanned(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	for i, ref := range sf.Refs() {
		_, view, _ := faultBatch(t, sf, ref)
		equalBatches(t, hourBatch(i), view)
	}
}

// TestAppendConcurrentRollover appends from many goroutines until the
// file rolls over, faulting each span back as soon as it is written.
// Every append either gets a reference that serves its own rows at once
// (sealed or not) or ErrSealed; reservations never overlap; and the
// sealed file's index holds exactly the spans that were handed out —
// the seal waited for the appends still in flight. Run with -race.
func TestAppendConcurrentRollover(t *testing.T) {
	const workers = 8
	batches := make([]*flowrec.Batch, workers)
	for w := range batches {
		batches[w] = testBatch(3000+w, int64(w)+1)
	}
	sf, _ := liveFile(t)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		byWk = make(map[SpanRef]int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				ref, err := sf.Append(batches[w])
				if err == ErrSealed {
					return
				}
				if err != nil {
					t.Errorf("worker %d: Append: %v", w, err)
					return
				}
				seg, err := sf.Span(ref)
				if err != nil {
					t.Errorf("worker %d: Span(%+v): %v", w, ref, err)
					return
				}
				if seg.rows != batches[w].Len() {
					t.Errorf("worker %d: faulted %d rows, appended %d", w, seg.rows, batches[w].Len())
				}
				seg.Close()
				mu.Lock()
				byWk[ref] = w
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	opened, err := OpenSpanned(sf.Path())
	if err != nil {
		t.Fatalf("the rolled-over file must be sealed on disk: %v", err)
	}
	defer opened.Close()
	refs := opened.Refs()
	if len(refs) != len(byWk) {
		t.Fatalf("index holds %d spans, %d were handed out", len(refs), len(byWk))
	}
	if opened.end < spanFileSize {
		t.Fatalf("file sealed at %d bytes, before the roll-over size %d", opened.end, spanFileSize)
	}
	for i, ref := range refs {
		w, ok := byWk[ref]
		if !ok {
			t.Fatalf("index entry %d (%+v) was never returned by Append", i, ref)
		}
		_, view, _ := faultBatch(t, opened, ref)
		equalBatches(t, batches[w], view)
	}
}
