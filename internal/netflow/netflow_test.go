package netflow

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
)

var export = time.Date(2020, 3, 25, 20, 30, 0, 0, time.UTC)

func sampleRecords(n int) []flowrec.Record {
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = flowrec.Record{
			Start:    export.Add(-time.Duration(10+i) * time.Minute),
			End:      export.Add(-time.Duration(i) * time.Minute),
			SrcIP:    netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			DstIP:    netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)}),
			SrcPort:  uint16(50000 + i),
			DstPort:  443,
			Proto:    flowrec.ProtoTCP,
			Bytes:    uint64(1500 * (i + 1)),
			Packets:  uint64(i + 1),
			SrcAS:    64700,
			DstAS:    15169,
			InIf:     1,
			OutIf:    2,
			Dir:      flowrec.DirEgress,
			TCPFlags: 0x1b,
		}
	}
	return recs
}

// encodeV9 and decodeV9 run record-slice fixtures through the batch codec.
func encodeV9(enc *V9Encoder, recs []flowrec.Record) ([]byte, error) {
	return enc.EncodeBatch(nil, flowrec.FromRecords(recs), 0, len(recs), export)
}

func decodeV9(dec *tmpl.Decoder, pkt []byte) ([]flowrec.Record, error) {
	var b flowrec.Batch
	_, err := dec.DecodeBatch(&b, pkt)
	return b.Records(), err
}

func TestV9RoundTrip(t *testing.T) {
	recs := sampleRecords(7)
	enc := &V9Encoder{SourceID: 42}
	pkt, err := encodeV9(enc, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := V9SourceID(pkt); got != 42 {
		t.Errorf("V9SourceID = %d, want 42", got)
	}
	dec := NewV9Decoder()
	got, err := decodeV9(dec, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		w := recs[i]
		g := got[i]
		if g.SrcIP != w.SrcIP || g.DstIP != w.DstIP || g.Bytes != w.Bytes || g.Packets != w.Packets ||
			g.SrcPort != w.SrcPort || g.DstPort != w.DstPort || g.Proto != w.Proto ||
			g.SrcAS != w.SrcAS || g.DstAS != w.DstAS || g.Dir != w.Dir || g.TCPFlags != w.TCPFlags ||
			g.InIf != w.InIf || g.OutIf != w.OutIf {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if !g.Start.Equal(w.Start.Truncate(time.Second)) || !g.End.Equal(w.End.Truncate(time.Second)) {
			t.Errorf("record %d times mismatch: %v-%v vs %v-%v", i, g.Start, g.End, w.Start, w.End)
		}
	}
}

func TestV9SequenceIncrements(t *testing.T) {
	enc := &V9Encoder{SourceID: 1}
	p1, err := encodeV9(enc, sampleRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := encodeV9(enc, sampleRecords(1))
	if err != nil {
		t.Fatal(err)
	}
	if p1[12] == p2[12] && p1[13] == p2[13] && p1[14] == p2[14] && p1[15] == p2[15] {
		t.Error("sequence number did not change between packets")
	}
}

func TestV9DataBeforeTemplateRejected(t *testing.T) {
	enc := &V9Encoder{SourceID: 7}
	pkt, err := encodeV9(enc, sampleRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	// Strip the template flowset: header(20) + template set. The template
	// set length lives at offset 22.
	tplLen := int(uint16(pkt[22])<<8 | uint16(pkt[23]))
	mangled := append(append([]byte{}, pkt[:20]...), pkt[20+tplLen:]...)
	dec := NewV9Decoder()
	if _, err := decodeV9(dec, mangled); err == nil {
		t.Error("data flowset without template accepted")
	}
	// After seeing the full packet once, the template is cached and the
	// mangled packet decodes.
	if _, err := decodeV9(dec, pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeV9(dec, mangled); err != nil {
		t.Errorf("cached template not used: %v", err)
	}
}

func TestV9Malformed(t *testing.T) {
	dec := NewV9Decoder()
	if _, err := decodeV9(dec, []byte{0, 9}); err == nil {
		t.Error("short v9 packet accepted")
	}
	enc := &V9Encoder{}
	if _, err := encodeV9(enc, nil); err == nil {
		t.Error("empty v9 encode accepted")
	}
	pkt, _ := encodeV9(enc, sampleRecords(1))
	pkt[1] = 5 // version
	if _, err := decodeV9(dec, pkt); err == nil {
		t.Error("wrong version accepted")
	}
	pkt, _ = encodeV9(enc, sampleRecords(1))
	pkt[22], pkt[23] = 0xff, 0xff // absurd set length
	if _, err := decodeV9(dec, pkt); err == nil {
		t.Error("invalid set length accepted")
	}
}

// TestBeUint: counters decode big-endian at whatever width the template
// announces, from one byte to eight.
func TestBeUint(t *testing.T) {
	for _, tc := range []struct {
		wire []byte
		want uint64
	}{
		{[]byte{0xff}, 255},
		{[]byte{0x01, 0x02}, 0x0102},
		{[]byte{1, 0, 0, 0, 0, 0, 0, 0}, 1 << 56},
	} {
		pkt := v9Packet(300, [][2]uint16{{fieldInBytes, uint16(len(tc.wire))}}, tc.wire)
		got, err := decodeV9(NewV9Decoder(), pkt)
		if err != nil || len(got) != 1 || got[0].Bytes != tc.want {
			t.Errorf("%d-byte counter decoded as %+v (err %v), want %d", len(tc.wire), got, err, tc.want)
		}
	}
}

// Property: v9 encode/decode round-trips counters and ports for arbitrary
// values.
func TestV9RoundTripQuick(t *testing.T) {
	enc := &V9Encoder{SourceID: 9}
	dec := NewV9Decoder()
	f := func(sp, dp uint16, bytes, packets uint32, srcAS, dstAS uint32) bool {
		r := sampleRecords(1)[0]
		r.SrcPort, r.DstPort = sp, dp
		r.Bytes, r.Packets = uint64(bytes), uint64(packets)
		r.SrcAS, r.DstAS = srcAS, dstAS
		pkt, err := encodeV9(enc, []flowrec.Record{r})
		if err != nil {
			return false
		}
		got, err := decodeV9(dec, pkt)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.SrcPort == sp && g.DstPort == dp &&
			g.Bytes == uint64(bytes) && g.Packets == uint64(packets) &&
			g.SrcAS == srcAS && g.DstAS == dstAS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestV9PacketFillsDatagram: a packet of V9MaxRecords rows fills at most
// one UDP datagram and passes CheckV9Header, one row more is refused, and
// the header check refuses what is not a v9 header.
func TestV9PacketFillsDatagram(t *testing.T) {
	for _, cols := range []flowrec.Columns{flowrec.AllColumns, flowrec.ColBytes | flowrec.ColDstPort} {
		max := V9MaxRecords(cols)
		b := flowrec.FromRecords(sampleRecords(max + 1)).Project(cols)
		var enc V9Encoder
		pkt, err := enc.EncodeBatch(nil, b, 0, max, export)
		if err != nil {
			t.Fatalf("%s: %d rows: %v", cols, max, err)
		}
		if len(pkt) > 65507 {
			t.Errorf("%s: a packet of %d rows is %d bytes, over a UDP payload", cols, max, len(pkt))
		}
		if err := CheckV9Header(pkt); err != nil {
			t.Errorf("%s: %v", cols, err)
		}
		if _, err := enc.EncodeBatch(nil, b, 0, max+1, export); err == nil {
			t.Errorf("%s: %d rows, one more than a datagram holds, encoded", cols, max+1)
		}
	}
	if err := CheckV9Header([]byte{0, 9}); err == nil {
		t.Error("a short header passed")
	}
	pkt, _ := encodeV9(&V9Encoder{}, sampleRecords(1))
	pkt[1] = 10
	if err := CheckV9Header(pkt); err == nil {
		t.Error("an IPFIX version word passed the v9 header check")
	}
}
