package flowstore

import (
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"lockdown/internal/flowrec"
)

// testBatch builds a deterministic batch whose addresses include random
// four-byte patterns, the all-ones address and the zero Addr.
func testBatch(rows int, seed int64) *flowrec.Batch {
	rng := rand.New(rand.NewSource(seed))
	b := flowrec.NewBatch(rows)
	base := time.Date(2020, 3, 14, 12, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		var src, dst netip.Addr
		switch i % 4 {
		case 0:
			src = netip.AddrFrom4([4]byte{10, byte(i), byte(i >> 8), 1})
			dst = netip.AddrFrom4([4]byte{192, 168, byte(i), 2})
		case 1:
			var a [4]byte
			rng.Read(a[:])
			src = netip.AddrFrom4(a)
			rng.Read(a[:])
			dst = netip.AddrFrom4(a)
		case 2:
			src = netip.AddrFrom4([4]byte{255, 255, 255, 255})
			dst = netip.AddrFrom4([4]byte{172, 16, 0, byte(i)})
		case 3:
			// zero Addr (0.0.0.0 at both ends)
		}
		start := base.Add(time.Duration(i) * time.Second)
		b.Append(flowrec.Record{
			Start: start, End: start.Add(time.Duration(rng.Intn(1000)) * time.Millisecond),
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: flowrec.ProtoTCP, Bytes: uint64(rng.Intn(1 << 30)), Packets: uint64(1 + rng.Intn(1000)),
			SrcAS: rng.Uint32(), DstAS: rng.Uint32(),
			InIf: uint16(rng.Intn(64)), OutIf: uint16(rng.Intn(64)),
			Dir: flowrec.Direction(rng.Intn(3)), TCPFlags: uint8(rng.Intn(256)),
		})
	}
	return b
}

// equalBatches compares every column of two batches for exact equality.
func equalBatches(t *testing.T, want, got *flowrec.Batch) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("row count: want %d, got %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Record(i), got.Record(i)
		if w != g {
			t.Fatalf("row %d differs:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

// liveFile appends the batches to a fresh span file and leaves it open
// and unsealed: the state the dataset cache reads its spills in.
func liveFile(t testing.TB, batches ...*flowrec.Batch) (*SpanFile, []SpanRef) {
	t.Helper()
	sf, err := Create(filepath.Join(t.TempDir(), "spill"+SpannedExt))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { sf.Close() })
	refs := make([]SpanRef, len(batches))
	for i, b := range batches {
		if refs[i], err = sf.Append(b); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return sf, refs
}

// faultBatch faults one span and returns its view.
func faultBatch(t *testing.T, sf *SpanFile, ref SpanRef) (*Segment, *flowrec.Batch, int64) {
	t.Helper()
	seg, err := sf.Span(ref)
	if err != nil {
		t.Fatalf("Span(%+v): %v", ref, err)
	}
	t.Cleanup(func() { seg.Close() })
	view, heap := seg.Batch()
	return seg, view, heap
}

func TestRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 1000} {
		b := testBatch(rows, int64(rows)+1)
		sf, refs := liveFile(t, b)
		seg, view, heap := faultBatch(t, sf, refs[0])
		if seg.rows != rows {
			t.Fatalf("rows=%d: segment reports %d rows", rows, seg.rows)
		}
		if heap <= 0 {
			t.Errorf("rows=%d: heapBytes = %d, want > 0 (the struct)", rows, heap)
		}
		equalBatches(t, b, view)
		if seg.Mapped() && rows > 0 {
			for name, col := range map[string][]flowrec.Addr{"SrcIP": view.SrcIP, "DstIP": view.DstIP} {
				if !aliases(seg.data, unsafe.Pointer(&col[0])) {
					t.Errorf("rows=%d: %s of a mapped span was copied onto the heap", rows, name)
				}
			}
		}
		if !view.IsView() {
			t.Error("span batch must be marked as a view")
		}
		if err := seg.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestRoundTripProjected: a span holds exactly the columns of the batch
// that was appended — its size is the layout of that set, the set travels
// in the reference, and the fault views those columns with their values
// and no others.
func TestRoundTripProjected(t *testing.T) {
	full := testBatch(777, 21)
	_, fullSize := layout(full.Len(), flowrec.AllColumns)
	sets := []flowrec.Columns{
		flowrec.PortLaneColumns | flowrec.ColBytes | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir,
		flowrec.PortLaneColumns | flowrec.ColBytes | flowrec.ColSrcIP | flowrec.ColDstIP,
		flowrec.ColBytes | flowrec.ColDstIP,
		flowrec.ColStartNs, flowrec.ColTCPFlags, // the first and the last blob alone, neither with Bytes
		flowrec.AllColumns,
	}
	for _, cols := range sets {
		for _, rows := range []int{0, full.Len()} {
			want := full.Project(cols)
			want.Truncate(rows)
			sf, refs := liveFile(t, want)
			ref := refs[0]
			if ref.Cols != cols || ref.Rows != rows {
				t.Fatalf("%s: reference carries %s × %d rows", cols, ref.Cols, ref.Rows)
			}
			if cols != flowrec.AllColumns && rows > 0 && ref.Size >= int64(fullSize) {
				t.Errorf("%s: span is %d bytes, the full-width one %d", cols, ref.Size, fullSize)
			}
			_, view, _ := faultBatch(t, sf, ref)
			if view.Columns() != cols || view.Len() != rows {
				t.Fatalf("%s: view stores %s × %d rows, want %d", cols, view.Columns(), view.Len(), rows)
			}
			if !view.Equal(want) {
				t.Errorf("%s × %d rows: the view differs from the batch that was appended", cols, rows)
			}
		}
	}
}

// aliases reports whether p points into data.
func aliases(data []byte, p unsafe.Pointer) bool {
	base := uintptr(unsafe.Pointer(&data[0]))
	return uintptr(p) >= base && uintptr(p) < base+uintptr(len(data))
}

// TestViewHeapBytes: heapBytes is what the view keeps on the heap — the
// figure the cache budget is enforced with. A mapped span whose columns
// all alias the mapping costs the batch struct and nothing else; a span
// read onto the heap (no mmap on this platform, or mmap failed) costs
// the whole buffer.
func TestViewHeapBytes(t *testing.T) {
	sf, refs := liveFile(t, testBatch(500, 4))
	ref := refs[0]
	if seg, _, heap := faultBatch(t, sf, ref); seg.Mapped() && hostLE {
		if max := int64(unsafe.Sizeof(flowrec.Batch{})); heap > max {
			t.Errorf("mapped span: heapBytes = %d, want at most the struct's %d", heap, max)
		}
	}
	data, mapped, err := readSpan(sf.f, ref.Off, int(ref.Size))
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := layout(ref.Rows, ref.Cols)
	seg := &Segment{data: data, mapped: mapped, rows: ref.Rows, cols: ref.Cols, offs: offs}
	view, heap := seg.Batch()
	if heap < ref.Size {
		t.Errorf("heap-fallback span: heapBytes = %d, want at least the span's %d bytes", heap, ref.Size)
	}
	equalBatches(t, testBatch(500, 4), view)
}

func TestViewIsImmutableAndUnpooled(t *testing.T) {
	sf, refs := liveFile(t, testBatch(64, 3))
	_, view, _ := faultBatch(t, sf, refs[0])
	// Columns must have len == cap so that appending copies instead of
	// scribbling past the view into span (or mapped) memory.
	if cap(view.Bytes) != view.Len() || cap(view.SrcPort) != view.Len() {
		t.Fatalf("view columns must have len == cap (len %d, cap %d)", view.Len(), cap(view.Bytes))
	}
	grown := append([]uint64(nil), view.Bytes...)
	appended := append(view.Bytes, 42)
	if &appended[0] == &view.Bytes[0] {
		t.Fatal("append aliased the view column; cap clamp missing")
	}
	for i := range grown {
		if view.Bytes[i] != grown[i] {
			t.Fatal("append mutated the view column")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Release of a view batch must panic")
		}
	}()
	view.Release()
}

func TestEvictedAdviseIsSafe(t *testing.T) {
	b := testBatch(512, 9)
	sf, refs := liveFile(t, b)
	seg, view, _ := faultBatch(t, sf, refs[0])
	seg.Evicted() // advisory; must not invalidate the data
	equalBatches(t, b, view)
}

// TestCorruption damages a span file underneath the process that wrote
// it and still holds its references — the state the dataset cache is in
// — and asserts the one read path: a span whose bytes are damaged or
// gone is rejected by Span with an error instead of serving wrong rows,
// crashing on a mapping past the end of the file, or taking its
// neighbours with it; and the header, which that path never reads, can
// be damaged without consequence.
func TestCorruption(t *testing.T) {
	batches := []*flowrec.Batch{testBatch(256, 5), testBatch(300, 6), testBatch(200, 7)}
	rewrite := func(mutate func(d []byte, refs []SpanRef) []byte) func(*testing.T, string, []SpanRef) {
		return func(t *testing.T, path string, refs []SpanRef) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// WriteFile truncates and rewrites the same inode, so the open
			// descriptor sees the damage.
			if err := os.WriteFile(path, mutate(raw, refs), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := map[string]struct {
		damage func(*testing.T, string, []SpanRef)
		bad    [3]bool // which spans must be rejected
	}{
		"bad-magic":      {damage: rewrite(func(d []byte, _ []SpanRef) []byte { d[0] ^= 0xff; return d })},
		"bad-version":    {damage: rewrite(func(d []byte, _ []SpanRef) []byte { d[4] = 99; return d })},
		"header-bitflip": {damage: rewrite(func(d []byte, _ []SpanRef) []byte { d[44] ^= 0x01; return d })},
		"data-bitflip": {
			damage: rewrite(func(d []byte, refs []SpanRef) []byte { d[refs[1].Off+100] ^= 0x80; return d }),
			bad:    [3]bool{false, true, false},
		},
		"truncated-data": {
			damage: rewrite(func(d []byte, refs []SpanRef) []byte { return d[:refs[2].Off+refs[2].Size-128] }),
			bad:    [3]bool{false, false, true},
		},
		"truncated-head": {
			damage: rewrite(func(d []byte, _ []SpanRef) []byte { return d[:100] }),
			bad:    [3]bool{true, true, true},
		},
		"empty": {
			damage: rewrite(func(d []byte, _ []SpanRef) []byte { return nil }),
			bad:    [3]bool{true, true, true},
		},
		"row-count-bumps": {
			damage: func(_ *testing.T, _ string, refs []SpanRef) { refs[0].Rows++ },
			bad:    [3]bool{true, false, false},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			sf, refs := liveFile(t, batches...)
			if err := sf.Seal(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, sf.Path(), refs)
			for i, ref := range refs {
				if tc.bad[i] {
					if seg, err := sf.Span(ref); err == nil {
						seg.Close()
						t.Fatalf("Span %d accepted after %s", i, name)
					}
					continue
				}
				_, view, _ := faultBatch(t, sf, ref) // fatal if the intact span is rejected
				equalBatches(t, batches[i], view)
			}
		})
	}
}

// TestWriteIsAtomic: a span file passes for valid only once it is
// sealed. Before that there is no header to read, so a reader of the
// path — or of what a killed writer left — is refused, while the writer
// itself serves every span it appended; there is no temporary file
// beside it at any point, and Create never reopens an existing file.
func TestWriteIsAtomic(t *testing.T) {
	b := testBatch(32, 1)
	sf, refs := liveFile(t, b)
	path := sf.Path()
	if opened, err := OpenSpanned(path); err == nil {
		opened.Close()
		t.Fatal("OpenSpanned accepted an unsealed file")
	}
	_, view, _ := faultBatch(t, sf, refs[0])
	equalBatches(t, b, view)
	if _, err := Create(path); err == nil {
		t.Fatal("Create reopened an existing span file")
	}

	if err := sf.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Seal(); err != nil {
		t.Fatalf("second Seal: %v", err)
	}
	if _, err := sf.Append(b); err != ErrSealed {
		t.Fatalf("Append after Seal = %v, want ErrSealed", err)
	}
	opened, err := OpenSpanned(path)
	if err != nil {
		t.Fatalf("OpenSpanned of a sealed file: %v", err)
	}
	defer opened.Close()
	if got := opened.Refs(); len(got) != 1 || got[0] != refs[0] {
		t.Fatalf("sealed index = %+v, want %+v", got, refs)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("directory has unexpected entries: %v", entries)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := OpenSpanned(filepath.Join(t.TempDir(), "absent"+SpannedExt)); err == nil {
		t.Fatal("OpenSpanned of a missing file must fail")
	}
	if _, err := Create(filepath.Join(t.TempDir(), "no-such-dir", "x"+SpannedExt)); err == nil {
		t.Fatal("Create in a missing directory must fail")
	}
}

// TestAppendWriteError: a failed write surfaces as an error from Append
// (the cache then keeps the batch resident), not as a reference to bytes
// that are not there.
func TestAppendWriteError(t *testing.T) {
	sf, _ := liveFile(t, testBatch(8, 1))
	sf.Close() // every later pwrite fails
	if ref, err := sf.Append(testBatch(8, 2)); err == nil {
		t.Fatalf("Append on a closed file returned %+v", ref)
	}
}

// BenchmarkSegmentWriteFault measures one full spill/fault cycle: encode
// and append a component-hour-sized batch, then map, verify and build the
// view. This is the cost the tiered cache pays per eviction + re-access;
// cmd/benchgate gates its allocs/op in CI.
func BenchmarkSegmentWriteFault(bm *testing.B) {
	b := testBatch(4096, 11)
	sf, _ := liveFile(bm)
	var rows int64
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		ref, err := sf.Append(b)
		if err == ErrSealed {
			// Roll over like the cache does, dropping the full file so
			// a long run stays within one file's size on disk.
			sf.Close()
			os.Remove(sf.Path())
			sf, _ = liveFile(bm)
			ref, err = sf.Append(b)
		}
		if err != nil {
			bm.Fatal(err)
		}
		seg, err := sf.Span(ref)
		if err != nil {
			bm.Fatal(err)
		}
		view, _ := seg.Batch()
		rows += int64(view.Len())
		if err := seg.Close(); err != nil {
			bm.Fatal(err)
		}
	}
	bm.SetBytes(int64(b.HeapBytes()))
	_ = rows
}

// TestPortableFallback flips the host-endianness switch so the
// per-element encode/decode fallbacks run even on little-endian CI
// hosts: the format must round-trip identically through both paths.
func TestPortableFallback(t *testing.T) {
	orig := hostLE
	defer func() { hostLE = orig }()
	hostLE = false

	b := testBatch(333, 21)
	sf, refs := liveFile(t, b)
	_, view, heap := faultBatch(t, sf, refs[0])
	equalBatches(t, b, view)
	// Every multi-byte numeric column was decode-copied (48 bytes a row),
	// so the heap estimate must exceed the view-path one (the struct).
	if minHeap := int64(333) * 48; heap <= minHeap {
		t.Errorf("fallback heapBytes = %d, want > %d (copied columns must be accounted)", heap, minHeap)
	}

	// Cross-path compatibility: a span written by the fallback faults on
	// the fast path and vice versa.
	hostLE = orig
	_, view2, _ := faultBatch(t, sf, refs[0])
	equalBatches(t, b, view2)
	fast, err := sf.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	hostLE = false
	_, view3, _ := faultBatch(t, sf, fast)
	equalBatches(t, b, view3)
}
