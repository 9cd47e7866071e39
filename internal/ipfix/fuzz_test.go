package ipfix

import (
	"encoding/binary"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// FuzzDecodeBatch replays the IPFIX seed corpus through this package's
// decoder name. The decoder itself is fuzzed once, for both of its
// framings, by tmpl's FuzzDecodeBatch — that is the target CI spends its
// budget on.
func FuzzDecodeBatch(f *testing.F) {
	cfg := synth.DefaultConfig(synth.IXPCE)
	cfg.FlowScale = 0.05
	g, err := synth.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	b := g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
	var enc Encoder
	hour := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	for lo := 0; lo < b.Len() && lo < 300; lo += 100 {
		hi := lo + 100
		if hi > b.Len() {
			hi = b.Len()
		}
		msg, err := enc.EncodeBatch(nil, b, lo, hi, hour)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
		f.Add(msg[:len(msg)/2])
		f.Add(msg[:16]) // header only
	}
	f.Add(shortFieldMessage())
	f.Add(zeroLengthFieldMessage())
	f.Fuzz(func(t *testing.T, msg []byte) {
		dst := flowrec.NewBatch(1)
		dst.Append(flowrec.Record{Bytes: 1, Packets: 1})
		before := dst.Len()
		n, err := NewDecoder().DecodeBatch(dst, msg)
		if err != nil && dst.Len() != before {
			t.Fatalf("error left %d rows appended", dst.Len()-before)
		}
		if err == nil && dst.Len() != before+n {
			t.Fatalf("DecodeBatch returned %d rows but appended %d", n, dst.Len()-before)
		}
		if len(dst.StartNs) != dst.Len() || len(dst.SrcIP) != dst.Len() || len(dst.TCPFlags) != dst.Len() {
			t.Fatalf("ragged columns after decode")
		}
	})
}

// message hand-builds a well-framed IPFIX message from observation
// domain 9 that announces one template of (element, length) pairs and
// carries the given data-set body. Template lengths are untrusted input;
// the hostile shapes below are built with it.
func message(tplID uint16, fields [][2]uint16, data []byte) []byte {
	be := binary.BigEndian
	msg := be.AppendUint16(nil, 10)
	msg = be.AppendUint16(msg, 0) // total length, patched below
	msg = be.AppendUint32(msg, uint32(time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC).Unix()))
	msg = be.AppendUint32(msg, 0) // sequence
	msg = be.AppendUint32(msg, 9) // domain
	msg = be.AppendUint16(msg, 2) // template set
	msg = be.AppendUint16(msg, uint16(8+4*len(fields)))
	msg = be.AppendUint16(msg, tplID)
	msg = be.AppendUint16(msg, uint16(len(fields)))
	for _, f := range fields {
		msg = be.AppendUint16(be.AppendUint16(msg, f[0]), f[1])
	}
	msg = be.AppendUint16(msg, tplID)
	msg = be.AppendUint16(msg, uint16(4+len(data)))
	msg = append(msg, data...)
	be.PutUint16(msg[2:], uint16(len(msg)))
	return msg
}

// IPFIX information elements the hand-built templates use.
const (
	ieOctetDeltaCount  = 1
	ieProtocol         = 4
	ieSrcPort          = 7
	ieFlowStartSeconds = 150
)

// shortFieldMessage declares numeric information elements narrower than
// their natural width (a timestamp in 2 bytes, a port in 1, a counter in
// 3). This shape crashed the decoder before the beUint fix.
func shortFieldMessage() []byte {
	return message(500, [][2]uint16{{ieFlowStartSeconds, 2}, {ieSrcPort, 1}, {ieOctetDeltaCount, 3}},
		[]byte{0x5e, 0x7b, 0x21, 0x01, 0x02, 0x03})
}

// zeroLengthFieldMessage declares a zero-length single-byte IE
// (ieProtocol) next to a real one. The single-byte reads of the decoder
// (protocol, TCP control bits, direction) must not index the empty value
// slice; this shape panicked the decoder before the skip guard.
func zeroLengthFieldMessage() []byte {
	return message(501, [][2]uint16{{ieProtocol, 0}, {ieSrcPort, 2}}, []byte{0x01, 0xbb})
}

// TestDecodeZeroLengthField is the regression test for the review-found
// panic: a hostile template declaring a zero-length single-byte IE must
// decode without crashing.
func TestDecodeZeroLengthField(t *testing.T) {
	var b flowrec.Batch
	n, err := NewDecoder().DecodeBatch(&b, zeroLengthFieldMessage())
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
		t.Errorf("Proto = %d, want 0 (zero-length IE carries no value)", b.Proto[0])
	}
}

// TestDecodeShortTemplateFields is the regression test for the fuzz
// finding: field lengths below the IE's natural width decode
// (zero-extended) instead of panicking.
func TestDecodeShortTemplateFields(t *testing.T) {
	var b flowrec.Batch
	n, err := NewDecoder().DecodeBatch(&b, shortFieldMessage())
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
