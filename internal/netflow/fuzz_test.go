package netflow

import (
	"encoding/binary"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// fuzzSeedBatch returns a realistic synthetic batch to derive seed
// packets from: one lockdown-evening hour of ISP-CE flows.
func fuzzSeedBatch(tb testing.TB) *flowrec.Batch {
	tb.Helper()
	cfg := synth.DefaultConfig(synth.ISPCE)
	cfg.FlowScale = 0.05
	g, err := synth.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
}

// checkColumns asserts the batch invariant every decoder must preserve:
// all columns have the same length.
func checkColumns(t *testing.T, b *flowrec.Batch) {
	t.Helper()
	n := b.Len()
	if len(b.StartNs) != n || len(b.EndNs) != n || len(b.SrcIP) != n || len(b.DstIP) != n ||
		len(b.SrcPort) != n || len(b.DstPort) != n || len(b.Proto) != n || len(b.Packets) != n ||
		len(b.SrcAS) != n || len(b.DstAS) != n || len(b.InIf) != n || len(b.OutIf) != n ||
		len(b.Dir) != n || len(b.TCPFlags) != n {
		t.Fatalf("ragged columns after decode: len=%d", n)
	}
}

// FuzzDecodeV9Batch replays the v9 seed corpus through this package's
// decoder name. The decoder itself is fuzzed once, for both of its
// framings, by tmpl's FuzzDecodeBatch — that is the target CI spends its
// budget on.
func FuzzDecodeV9Batch(f *testing.F) {
	b := fuzzSeedBatch(f)
	var enc V9Encoder
	hour := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	for lo := 0; lo < b.Len() && lo < 300; lo += 100 {
		hi := lo + 100
		if hi > b.Len() {
			hi = b.Len()
		}
		pkt, err := enc.EncodeBatch(nil, b, lo, hi, hour)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt)
		f.Add(pkt[:len(pkt)/2])
	}
	f.Add(shortFieldV9Packet())
	f.Add(zeroLengthFieldV9Packet())
	f.Fuzz(func(t *testing.T, pkt []byte) {
		dst := flowrec.NewBatch(1)
		dst.Append(flowrec.Record{Bytes: 1, Packets: 1})
		before := dst.Len()
		n, err := NewV9Decoder().DecodeBatch(dst, pkt)
		if err != nil && dst.Len() != before {
			t.Fatalf("error left %d rows appended", dst.Len()-before)
		}
		if err == nil && dst.Len() != before+n {
			t.Fatalf("DecodeBatch returned %d rows but appended %d", n, dst.Len()-before)
		}
		checkColumns(t, dst)
	})
}

// v9Packet hand-builds a well-framed v9 packet from source 7 that
// announces one template of (field type, length) pairs and carries the
// given data-flowset body. Decoders must treat template-declared field
// lengths as untrusted; the hostile shapes below are built with it.
func v9Packet(tplID uint16, fields [][2]uint16, data []byte) []byte {
	be := binary.BigEndian
	pkt := be.AppendUint16(nil, 9)
	pkt = be.AppendUint16(pkt, 2)    // count: template + 1 data record
	pkt = be.AppendUint32(pkt, 1000) // uptime
	pkt = be.AppendUint32(pkt, uint32(time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC).Unix()))
	pkt = be.AppendUint32(pkt, 0) // sequence
	pkt = be.AppendUint32(pkt, 7) // source id
	pkt = be.AppendUint16(pkt, 0) // template flowset
	pkt = be.AppendUint16(pkt, uint16(8+4*len(fields)))
	pkt = be.AppendUint16(pkt, tplID)
	pkt = be.AppendUint16(pkt, uint16(len(fields)))
	for _, f := range fields {
		pkt = be.AppendUint16(be.AppendUint16(pkt, f[0]), f[1])
	}
	pkt = be.AppendUint16(pkt, tplID)
	pkt = be.AppendUint16(pkt, uint16(4+len(data)))
	return append(pkt, data...)
}

// NetFlow v9 field types the hand-built templates use.
const (
	fieldInBytes   = 1
	fieldProtocol  = 4
	fieldL4SrcPort = 7
	fieldFirstSwt  = 22
)

// shortFieldV9Packet declares numeric fields narrower than their natural
// width (a timestamp in 2 bytes, a port in 1, a counter in 3), followed by
// two bytes of flowset padding. This exact shape crashed the decoder
// before the beUint fix.
func shortFieldV9Packet() []byte {
	return v9Packet(300, [][2]uint16{{fieldFirstSwt, 2}, {fieldL4SrcPort, 1}, {fieldInBytes, 3}},
		[]byte{0x5e, 0x7b, 0x21, 0x01, 0x02, 0x03, 0, 0})
}

// zeroLengthFieldV9Packet declares a zero-length single-byte field
// (fieldProtocol) next to a real one. The single-byte reads of the
// decoder (protocol, TCP flags, direction) must not index the empty
// value slice; this shape panicked the decoder before the skip guard.
// The flowset is unpadded so the padding cannot parse as a second record.
func zeroLengthFieldV9Packet() []byte {
	return v9Packet(301, [][2]uint16{{fieldProtocol, 0}, {fieldL4SrcPort, 2}}, []byte{0x01, 0xbb})
}

// TestDecodeV9ZeroLengthField is the regression test for the
// review-found panic: a hostile template declaring a zero-length
// single-byte field must decode without crashing.
func TestDecodeV9ZeroLengthField(t *testing.T) {
	var b flowrec.Batch
	n, err := NewV9Decoder().DecodeBatch(&b, zeroLengthFieldV9Packet())
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if n != 1 || b.Len() != 1 {
		t.Fatalf("decoded %d rows (batch %d), want 1", n, b.Len())
	}
	if b.SrcPort[0] != 0x01bb {
		t.Errorf("SrcPort = %d, want %d", b.SrcPort[0], 0x01bb)
	}
	if b.Proto[0] != 0 {
		t.Errorf("Proto = %d, want 0 (zero-length field carries no value)", b.Proto[0])
	}
}

// TestDecodeV9ShortTemplateFields is the regression test for the panic
// the fuzz target surfaced: template-declared field lengths shorter than
// the field's natural width must decode (zero-extended), not crash.
func TestDecodeV9ShortTemplateFields(t *testing.T) {
	var b flowrec.Batch
	n, err := NewV9Decoder().DecodeBatch(&b, shortFieldV9Packet())
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if n != 1 || b.Len() != 1 {
		t.Fatalf("decoded %d rows (batch %d), want 1", n, b.Len())
	}
	if got := b.StartAt(0).Unix(); got != 0x5e7b {
		t.Errorf("Start = %d, want %d", got, 0x5e7b)
	}
	if b.SrcPort[0] != 0x21 {
		t.Errorf("SrcPort = %d, want %d", b.SrcPort[0], 0x21)
	}
	if b.Bytes[0] != 0x010203 {
		t.Errorf("Bytes = %d, want %d", b.Bytes[0], 0x010203)
	}
}
