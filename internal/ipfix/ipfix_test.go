package ipfix

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
)

var export = time.Date(2020, 4, 23, 11, 0, 0, 0, time.UTC)

func sample(n int) []flowrec.Record {
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = flowrec.Record{
			Start:    export.Add(-time.Duration(i+5) * time.Minute).Truncate(time.Second),
			End:      export.Add(-time.Duration(i) * time.Minute).Truncate(time.Second),
			SrcIP:    netip.AddrFrom4([4]byte{10, 5, 0, byte(i + 1)}),
			DstIP:    netip.AddrFrom4([4]byte{10, 6, 1, byte(i + 2)}),
			SrcPort:  uint16(40000 + i),
			DstPort:  443,
			Proto:    flowrec.ProtoUDP,
			Bytes:    uint64(9000 + i),
			Packets:  uint64(10 + i),
			SrcAS:    20940,
			DstAS:    3320,
			InIf:     3,
			OutIf:    4,
			Dir:      flowrec.DirIngress,
			TCPFlags: 0,
		}
	}
	return recs
}

// encode and decode run record-slice fixtures through the batch codec.
func encode(enc *Encoder, recs []flowrec.Record) ([]byte, error) {
	return enc.EncodeBatch(nil, flowrec.FromRecords(recs), 0, len(recs), export)
}

func decode(dec *tmpl.Decoder, msg []byte) ([]flowrec.Record, error) {
	var b flowrec.Batch
	_, err := dec.DecodeBatch(&b, msg)
	return b.Records(), err
}

func TestRoundTrip(t *testing.T) {
	enc := &Encoder{DomainID: 77}
	recs := sample(9)
	msg, err := encode(enc, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := DomainID(msg); got != 77 {
		t.Errorf("DomainID = %d, want 77", got)
	}
	dec := NewDecoder()
	got, err := decode(dec, msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		g, w := got[i], recs[i]
		if g.SrcIP != w.SrcIP || g.DstIP != w.DstIP || g.Bytes != w.Bytes || g.Packets != w.Packets ||
			g.SrcPort != w.SrcPort || g.DstPort != w.DstPort || g.Proto != w.Proto ||
			g.SrcAS != w.SrcAS || g.DstAS != w.DstAS || g.Dir != w.Dir ||
			g.InIf != w.InIf || g.OutIf != w.OutIf {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
			t.Errorf("record %d times mismatch", i)
		}
	}
}

func TestMessageLengthField(t *testing.T) {
	enc := &Encoder{DomainID: 1}
	msg, err := encode(enc, sample(3))
	if err != nil {
		t.Fatal(err)
	}
	l := int(msg[2])<<8 | int(msg[3])
	if l != len(msg) {
		t.Errorf("length field %d != message size %d", l, len(msg))
	}
	if err := CheckHeader(msg); err != nil {
		t.Errorf("the header check rejects our message: %v", err)
	}
	if CheckHeader(msg[:len(msg)-1]) == nil {
		t.Error("the header check accepts a message shorter than its length field")
	}
	// The largest full-width message fits one UDP datagram:
	// 16 + 68 + 4 + 1189*55 = 65483 <= 65507 < 65483 + 55.
	if n := MaxRecords(flowrec.AllColumns); n != 1189 {
		t.Errorf("MaxRecords(AllColumns) = %d, want 1189", n)
	}
}

func TestSequenceAdvancesByRecordCount(t *testing.T) {
	enc := &Encoder{DomainID: 1}
	m1, _ := encode(enc, sample(4))
	m2, _ := encode(enc, sample(1))
	seq1 := uint32(m1[8])<<24 | uint32(m1[9])<<16 | uint32(m1[10])<<8 | uint32(m1[11])
	seq2 := uint32(m2[8])<<24 | uint32(m2[9])<<16 | uint32(m2[10])<<8 | uint32(m2[11])
	if seq1 != 0 || seq2 != 4 {
		t.Errorf("sequence numbers = %d, %d; want 0, 4", seq1, seq2)
	}
}

func TestDataBeforeTemplateRejected(t *testing.T) {
	enc := &Encoder{DomainID: 5}
	msg, err := encode(enc, sample(2))
	if err != nil {
		t.Fatal(err)
	}
	// Template set begins at byte 16; its length is at bytes 18-19.
	tplLen := int(msg[18])<<8 | int(msg[19])
	mangled := append(append([]byte{}, msg[:16]...), msg[16+tplLen:]...)
	// Fix the message length field.
	mangled[2] = byte(len(mangled) >> 8)
	mangled[3] = byte(len(mangled))
	dec := NewDecoder()
	if _, err := decode(dec, mangled); err == nil {
		t.Error("data set without template accepted")
	}
	if _, err := decode(dec, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := decode(dec, mangled); err != nil {
		t.Errorf("cached template not used: %v", err)
	}
}

func TestTemplateCacheIsPerDomain(t *testing.T) {
	encA := &Encoder{DomainID: 1}
	encB := &Encoder{DomainID: 2}
	msgA, _ := encode(encA, sample(1))
	dec := NewDecoder()
	if _, err := decode(dec, msgA); err != nil {
		t.Fatal(err)
	}
	// Build a domain-2 message and strip its template: the domain-1
	// template must not be reused.
	msgB, _ := encode(encB, sample(1))
	tplLen := int(msgB[18])<<8 | int(msgB[19])
	mangled := append(append([]byte{}, msgB[:16]...), msgB[16+tplLen:]...)
	mangled[2] = byte(len(mangled) >> 8)
	mangled[3] = byte(len(mangled))
	if _, err := decode(dec, mangled); err == nil {
		t.Error("template from another observation domain was reused")
	}
}

func TestMalformed(t *testing.T) {
	dec := NewDecoder()
	if _, err := decode(dec, []byte{0, 10, 0}); err == nil {
		t.Error("short message accepted")
	}
	enc := &Encoder{}
	if _, err := encode(enc, nil); err == nil {
		t.Error("empty encode accepted")
	}
	msg, _ := encode(enc, sample(1))
	bad := append([]byte{}, msg...)
	bad[0], bad[1] = 0, 9
	if _, err := decode(dec, bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = append([]byte{}, msg...)
	bad[2], bad[3] = 0, 7 // wrong length
	if _, err := decode(dec, bad); err == nil {
		t.Error("wrong length field accepted")
	}
}

// Property: encode/decode round-trips counters, ports and AS numbers.
func TestRoundTripQuick(t *testing.T) {
	enc := &Encoder{DomainID: 3}
	dec := NewDecoder()
	f := func(sp, dp uint16, bytes uint32, srcAS, dstAS uint32, dir bool) bool {
		r := sample(1)[0]
		r.SrcPort, r.DstPort = sp, dp
		r.Bytes = uint64(bytes)
		r.SrcAS, r.DstAS = srcAS, dstAS
		if dir {
			r.Dir = flowrec.DirEgress
		} else {
			r.Dir = flowrec.DirIngress
		}
		msg, err := encode(enc, []flowrec.Record{r})
		if err != nil {
			return false
		}
		got, err := decode(dec, msg)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.SrcPort == sp && g.DstPort == dp && g.Bytes == uint64(bytes) &&
			g.SrcAS == srcAS && g.DstAS == dstAS && g.Dir == r.Dir
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
