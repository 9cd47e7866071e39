package flowrec

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
)

// sampleRecords builds a deterministic set of records covering the corner
// cases the batch must preserve: port-less protocols, millisecond
// timestamps, all directions.
func sampleRecords(n int) []Record {
	base := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		r := Record{
			Start:    base.Add(time.Duration(i) * time.Second),
			End:      base.Add(time.Duration(i)*time.Second + 90*time.Second + 250*time.Millisecond),
			SrcIP:    netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			DstIP:    netip.AddrFrom4([4]byte{192, 168, byte(i >> 8), byte(i)}),
			SrcPort:  uint16(443),
			DstPort:  uint16(49152 + i),
			Proto:    ProtoTCP,
			Bytes:    uint64(1500 * (i + 1)),
			Packets:  uint64(i + 1),
			SrcAS:    uint32(64500 + i),
			DstAS:    uint32(64600 + i),
			InIf:     1,
			OutIf:    2,
			Dir:      Direction(i % 3),
			TCPFlags: 0x1b,
		}
		if i%5 == 4 {
			r.Proto = ProtoGRE
			r.SrcPort, r.DstPort, r.TCPFlags = 0, 0, 0
		}
		out[i] = r
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	recs := sampleRecords(37)
	b := FromRecords(recs)
	if b.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(recs))
	}
	got := b.Records()
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("Batch -> Records round trip is not identical")
	}
	for i, r := range recs {
		if one := b.Record(i); !reflect.DeepEqual(one, r) {
			t.Fatalf("Record(%d) = %+v, want %+v", i, one, r)
		}
	}
}

// TestBatchZeroTimeRoundTrip pins the unset-timestamp contract: a
// record whose Start/End were never set (e.g. decoded from a wire
// template without the flow-time fields) must come back with zero
// times, not an overflowed UnixNano date.
func TestBatchZeroTimeRoundTrip(t *testing.T) {
	b := NewBatch(1)
	b.Append(Record{Proto: ProtoUDP, Bytes: 10, Packets: 1})
	got := b.Record(0)
	if !got.Start.IsZero() || !got.End.IsZero() {
		t.Errorf("unset timestamps round-tripped as %v / %v, want zero times", got.Start, got.End)
	}
}

func TestBatchEmptyRecordsNil(t *testing.T) {
	if NewBatch(8).Records() != nil {
		t.Error("empty batch should materialise as nil (record-slice API parity)")
	}
}

func TestBatchServerPortMatchesRecord(t *testing.T) {
	recs := sampleRecords(25)
	// Add the asymmetric cases the heuristic distinguishes.
	recs = append(recs,
		Record{Proto: ProtoUDP, SrcPort: 0, DstPort: 53},
		Record{Proto: ProtoUDP, SrcPort: 53, DstPort: 0},
		Record{Proto: ProtoTCP, SrcPort: 50000, DstPort: 443},
		Record{Proto: ProtoICMP},
	)
	b := FromRecords(recs)
	for i, r := range recs {
		if got, want := b.ServerPortAt(i), r.ServerPort(); got != want {
			t.Errorf("row %d: ServerPortAt = %v, Record.ServerPort = %v", i, got, want)
		}
	}
}

func TestBatchAppendBatchAndGrow(t *testing.T) {
	recs := sampleRecords(12)
	a := FromRecords(recs[:5])
	c := FromRecords(recs[5:])
	b := NewBatch(len(recs))
	before := cap(b.Bytes)
	b.AppendBatch(a)
	b.AppendBatch(c)
	if cap(b.Bytes) != before {
		t.Errorf("preallocated batch reallocated: cap %d -> %d", before, cap(b.Bytes))
	}
	if !reflect.DeepEqual(b.Records(), recs) {
		t.Error("AppendBatch concatenation differs from the source records")
	}
}

func TestBatchPoolReuse(t *testing.T) {
	b := GetProjected(64, AllColumns)
	if b.Len() != 0 || cap(b.Bytes) < 64 {
		t.Fatalf("GetProjected: len=%d cap=%d, want empty with capacity >= 64", b.Len(), cap(b.Bytes))
	}
	b.Append(sampleRecords(1)[0])
	b.Release()
	c := GetProjected(8, AllColumns)
	if c.Len() != 0 {
		t.Error("pooled batch must come back reset")
	}
	c.Release()
	(*Batch)(nil).Release() // must not panic
}

func TestBatchResetKeepsCapacity(t *testing.T) {
	b := FromRecords(sampleRecords(30))
	capBefore := cap(b.Bytes)
	b.Reset()
	if b.Len() != 0 {
		t.Error("Reset should truncate to zero rows")
	}
	if cap(b.Bytes) != capBefore {
		t.Error("Reset should keep column capacity")
	}
}

func TestReleaseDoublePanics(t *testing.T) {
	b := GetProjected(8, AllColumns)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double Release must panic")
		}
	}()
	b.Release()
}

func TestReleaseAfterReuseIsFine(t *testing.T) {
	// The pooled lifecycle must stay panic-free: get, release, re-get
	// (possibly the same object), release again.
	b := GetProjected(4, AllColumns)
	b.Release()
	c := GetProjected(4, AllColumns)
	c.Release()
}

func TestMarkViewBlocksPooling(t *testing.T) {
	b := NewBatch(4)
	b.Append(Record{Proto: ProtoTCP, Bytes: 1, Packets: 1})
	b.MarkView()
	if !b.IsView() {
		t.Fatal("MarkView did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Error("Release of a view batch must panic")
		}
	}()
	b.Release()
}

// TestSliceIsAReadOnlyView: Slice's rows are the batch's, in a projected
// batch too, an append to the view leaves the batch alone, and the view
// refuses the pool.
func TestSliceIsAReadOnlyView(t *testing.T) {
	full := NewBatch(0)
	for i := 0; i < 10; i++ {
		full.Append(Record{Proto: ProtoTCP, SrcPort: uint16(i), Bytes: uint64(100 + i), Packets: 1})
	}
	for _, b := range []*Batch{full, full.Project(ColBytes | ColSrcPort)} {
		v := b.Slice(3, 7)
		if v.Columns() != b.Columns() || v.Len() != 4 || v.Bytes[0] != 103 || v.SrcPort[3] != 6 {
			t.Fatalf("Slice(3, 7) of %s: %d rows of %s, bytes %v", b.Columns(), v.Len(), v.Columns(), v.Bytes)
		}
		if want := b.Project(b.Columns()); !b.Slice(0, b.Len()).Equal(want) || b.Slice(5, 5).Len() != 0 {
			t.Errorf("Slice of all rows (or none) of %s is not the batch (empty)", b.Columns())
		}
		v.Bytes = append(v.Bytes, 1)
		if b.Bytes[7] != 107 {
			t.Errorf("an append to the view wrote into the batch: row 7 holds %d", b.Bytes[7])
		}
		if !v.IsView() {
			t.Error("a slice is not marked as a view")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Release of a slice must panic")
		}
	}()
	full.Slice(0, 1).Release()
}

func TestHeapBytesGrowsWithRows(t *testing.T) {
	small, big := NewBatch(10), NewBatch(10000)
	if small.HeapBytes() <= 0 {
		t.Fatalf("HeapBytes = %d, want > 0", small.HeapBytes())
	}
	if big.HeapBytes() <= small.HeapBytes() {
		t.Errorf("HeapBytes must scale with capacity: %d vs %d", big.HeapBytes(), small.HeapBytes())
	}
}

// TestServerPortAtMatchesRecord pins the branchless column scan to the
// record path's branch ladder over the full behaviour space: port-less
// protocols, zero ports on either side, and both orderings.
func TestServerPortAtMatchesRecord(t *testing.T) {
	protos := []Proto{ProtoICMP, ProtoTCP, ProtoUDP, ProtoGRE, ProtoESP, Proto(200)}
	ports := []uint16{0, 1, 53, 443, 1024, 32768, 65535}
	b := NewBatch(0)
	var recs []Record
	for _, p := range protos {
		for _, s := range ports {
			for _, d := range ports {
				r := Record{Proto: p, SrcPort: s, DstPort: d}
				recs = append(recs, r)
				b.Append(r)
			}
		}
	}
	for i, r := range recs {
		if got, want := b.ServerPortAt(i), r.ServerPort(); got != want {
			t.Fatalf("proto %v src %d dst %d: ServerPortAt = %v, ServerPort = %v",
				r.Proto, r.SrcPort, r.DstPort, got, want)
		}
	}
}

// serverPortBranchy is the pre-branchless ServerPortAt (the Record path's
// branch ladder), kept as the benchmark baseline for the scan loops.
func serverPortBranchy(b *Batch, i int) PortProto {
	p := b.Proto[i]
	if p == ProtoGRE || p == ProtoESP || p == ProtoICMP {
		return PortProto{Proto: p}
	}
	s, d := b.SrcPort[i], b.DstPort[i]
	switch {
	case s == 0:
		return PortProto{p, d}
	case d == 0:
		return PortProto{p, s}
	case d < s:
		return PortProto{p, d}
	default:
		return PortProto{p, s}
	}
}

func benchPortBatch(rows int) *Batch {
	b := NewBatch(rows)
	protos := []Proto{ProtoTCP, ProtoUDP, ProtoTCP, ProtoTCP, ProtoICMP, ProtoGRE}
	for i := 0; i < rows; i++ {
		b.Append(Record{
			Proto:   protos[i%len(protos)],
			SrcPort: uint16(i * 7919), // pseudo-random orderings defeat the predictor
			DstPort: uint16(i * 104729),
			Bytes:   1,
		})
	}
	return b
}

func BenchmarkServerPortAt(bm *testing.B) {
	b := benchPortBatch(4096)
	var sink uint16
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		for r := 0; r < b.Len(); r++ {
			sink += b.ServerPortAt(r).Port
		}
	}
	_ = sink
}

func BenchmarkServerPortAtBranchyBaseline(bm *testing.B) {
	b := benchPortBatch(4096)
	var sink uint16
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		for r := 0; r < b.Len(); r++ {
			sink += serverPortBranchy(b, r).Port
		}
	}
	_ = sink
}
