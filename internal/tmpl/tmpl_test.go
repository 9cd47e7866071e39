package tmpl_test

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
	"lockdown/internal/tmpl"
)

// The codec is tested once, as a table over both of its framings. A
// framing enters the table as the Framing value users encode and decode
// with (tmpl.V9, tmpl.IPFIX), next to the header geometry the tests
// assert, which is written out here from the RFCs rather than read from
// the Framing value under test.

type encodeFunc func(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error)

type framing struct {
	name        string
	version     uint16
	headerLen   int
	seqOff      int // header offset of the sequence number
	streamOff   int // header offset of the exporter stream identity
	templateSet uint16
	templateID  uint16 // of the full-width template
	startID     uint16 // field numbers of flow start / end seconds
	endID       uint16
	ifLen       uint16 // wire width of the interface indexes
	hasLength   bool   // header word 1 is the message length
	padded      bool   // data sets are padded to four bytes
	seqStep     func(rows int) uint32
	maxRows     int // most full-width rows one UDP datagram (65 507 bytes) holds
	f           *tmpl.Framing
}

var framings = []framing{
	{
		name: "netflow-v9", version: 9, headerLen: 20, seqOff: 12, streamOff: 16,
		templateSet: 0, templateID: 256, startID: 22, endID: 21, ifLen: 2, padded: true,
		seqStep: func(int) uint32 { return 1 },
		maxRows: 1282, // packet: 20 + 68 + 4 + 1282*51 + 2 of padding = 65476 <= 65507 < 20 + 68 + 4 + 1283*51 + 3
		f:       &tmpl.V9,
	},
	{
		name: "ipfix", version: 10, headerLen: 16, seqOff: 8, streamOff: 12,
		templateSet: 2, templateID: 400, startID: 150, endID: 151, ifLen: 4, hasLength: true,
		seqStep: func(rows int) uint32 { return uint32(rows) },
		maxRows: 1189, // message: 16 + 68 + 4 + 1189*55 = 65483 <= 65507 < 65483 + 55
		f:       &tmpl.IPFIX,
	},
}

// encoder is an exporter of the framing: stream's encoder, with a
// sequence counter of its own.
func (fr framing) encoder(stream uint32) encodeFunc {
	var seq uint32
	return func(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
		return fr.f.EncodeBatch(dst, b, lo, hi, exportTime, stream, &seq)
	}
}

// decoder is a decoder of the framing with an empty template cache.
func (fr framing) decoder() *tmpl.Decoder { return tmpl.NewDecoder(fr.f) }

func forEachFraming(t *testing.T, f func(t *testing.T, fr framing)) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) { f(t, fr) })
	}
}

var export = time.Date(2020, 3, 25, 20, 30, 0, 0, time.UTC)

// sample returns n distinct second-aligned IPv4 records that use every
// column, as a record slice (the expectation) and as a batch (the input).
func sample(n int) ([]flowrec.Record, *flowrec.Batch) {
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = flowrec.Record{
			Start:    export.Add(-time.Duration(10+i) * time.Minute),
			End:      export.Add(-time.Duration(i) * time.Second),
			SrcIP:    netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}),
			DstIP:    netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)}),
			SrcPort:  uint16(50000 + i),
			DstPort:  443,
			Proto:    flowrec.ProtoTCP,
			Bytes:    uint64(1500*(i+1)) << 20, // beyond 32 bits
			Packets:  uint64(i + 1),
			SrcAS:    64700 + uint32(i)<<16,
			DstAS:    15169,
			InIf:     uint16(1 + i),
			OutIf:    2,
			Dir:      flowrec.Direction(i % 2),
			TCPFlags: 0x1b,
		}
	}
	return recs, flowrec.FromRecords(recs)
}

func mustEncode(t *testing.T, enc encodeFunc, b *flowrec.Batch) []byte {
	t.Helper()
	msg, err := enc(nil, b, 0, b.Len(), export)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func u16(msg []byte, off int) int    { return int(binary.BigEndian.Uint16(msg[off:])) }
func u32(msg []byte, off int) uint32 { return binary.BigEndian.Uint32(msg[off:]) }

// setLength patches the message length after surgery on a message, for
// the framing that carries one.
func (fr framing) setLength(msg []byte) []byte {
	if fr.hasLength {
		binary.BigEndian.PutUint16(msg[2:], uint16(len(msg)))
	}
	return msg
}

// stripTemplate removes the template set that follows the header, leaving
// a message whose data set refers to a template it does not announce.
func (fr framing) stripTemplate(msg []byte) []byte {
	tplLen := u16(msg, fr.headerLen+2)
	out := append(append([]byte{}, msg[:fr.headerLen]...), msg[fr.headerLen+tplLen:]...)
	return fr.setLength(out)
}

// message hand-builds a well-framed message for stream 7 announcing one
// template of (field, length) pairs and carrying the given data-set body.
// Template lengths are untrusted input; the hostile shapes below are built
// with it.
func (fr framing) message(tplID uint16, fields [][2]uint16, data []byte) []byte {
	be := binary.BigEndian
	tpl := be.AppendUint16(be.AppendUint16(nil, tplID), uint16(len(fields)))
	for _, f := range fields {
		tpl = be.AppendUint16(be.AppendUint16(tpl, f[0]), f[1])
	}
	return fr.joinTemplate(tpl, dataSet(nil, tplID, data))
}

// joinTemplate builds a message for stream 7 from the body of its
// template set (template IDs, field counts and (field, length) pairs)
// and the raw bytes that follow that set.
func (fr framing) joinTemplate(tpl, rest []byte) []byte {
	be := binary.BigEndian
	msg := make([]byte, fr.headerLen, fr.headerLen+4+len(tpl)+len(rest))
	be.PutUint16(msg[0:], fr.version)
	be.PutUint32(msg[fr.streamOff:], 7)
	msg = be.AppendUint16(msg, fr.templateSet)
	msg = be.AppendUint16(msg, uint16(4+len(tpl)))
	return fr.setLength(append(append(msg, tpl...), rest...))
}

// splitTemplate is the inverse of joinTemplate for a message whose first
// set is a template set, as every message of the corpus and of the
// equivalence table is: the set's body and the bytes after it, each cut
// short where the message is.
func (fr framing) splitTemplate(msg []byte) (tpl, rest []byte) {
	if len(msg) < fr.headerLen+4 {
		return nil, nil
	}
	end := min(fr.headerLen+max(u16(msg, fr.headerLen+2), 4), len(msg))
	return msg[fr.headerLen+4 : end], msg[end:]
}

// dataSet appends a data set of template tplID carrying data to dst.
func dataSet(dst []byte, tplID uint16, data []byte) []byte {
	be := binary.BigEndian
	dst = be.AppendUint16(be.AppendUint16(dst, tplID), uint16(4+len(data)))
	return append(dst, data...)
}

func TestRoundTrip(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		// 7 rows: the v9 flowset then needs three bytes of padding, which
		// must not decode as an eighth record.
		recs, b := sample(7)
		msg := mustEncode(t, fr.encoder(42), b)
		if got := u16(msg, 0); got != int(fr.version) {
			t.Errorf("version word = %d, want %d", got, fr.version)
		}
		if got := fr.f.StreamID(msg); got != 42 || u32(msg, fr.streamOff) != 42 {
			t.Errorf("stream identity = %d, want 42", got)
		}
		if fr.hasLength && u16(msg, 2) != len(msg) {
			t.Errorf("length field %d != message size %d", u16(msg, 2), len(msg))
		}
		if err := fr.f.CheckHeader(msg); err != nil {
			t.Errorf("the header check rejects an encoded message: %v", err)
		}
		if fr.padded && len(msg)%4 != 0 {
			t.Errorf("message of %d bytes is not padded to four", len(msg))
		}
		var got flowrec.Batch
		n, err := fr.decoder().DecodeBatch(&got, msg)
		if err != nil || n != len(recs) {
			t.Fatalf("decoded %d rows, err %v; want %d", n, err, len(recs))
		}
		if !reflect.DeepEqual(got.Records(), recs) {
			t.Errorf("decoded rows differ:\n got %+v\nwant %+v", got.Records(), recs)
		}
		if fr.f.StreamID(msg[:fr.headerLen-1]) != 0 || fr.f.StreamID(nil) != 0 {
			t.Error("a message too short for a header must report stream 0")
		}
	})
}

// TestRoundTripColumnSets: a batch of any column set travels under the
// standard template filtered to its columns, in the standard order, with
// the template ID of the full-width template plus the set of columns it
// lacks. Decoded, its columns hold the input and the absent ones 0. The
// full set keeps the full-width ID and all fifteen fields; its bytes are
// pinned by the golden-packet tests.
func TestRoundTripColumnSets(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		_, full := sample(7)
		for _, tc := range []struct {
			name string
			cols flowrec.Columns
		}{
			{"flows", core.FlowKey{Kind: core.KindFlows}.Columns()},
			{"vpn-flows", core.FlowKey{Kind: core.KindVPNFlows}.Columns()},
			{"component-flows", core.FlowKey{Kind: core.KindComponentFlows}.Columns()},
			{"one column", flowrec.ColDstPort},
			{"full", flowrec.AllColumns},
		} {
			msg := mustEncode(t, fr.encoder(9), full.Project(tc.cols))
			tpl := msg[fr.headerLen+4:]
			if id, want := uint16(u16(tpl, 0)), fr.templateID+uint16(flowrec.AllColumns&^tc.cols); id != want {
				t.Errorf("%s: template ID %d, want %d", tc.name, id, want)
			}
			prev := -1
			for i := range u16(tpl, 2) {
				pos := slices.Index(standardFields(fr), uint16(u16(tpl, 4+4*i)))
				if pos <= prev {
					t.Fatalf("%s: field %d (number %d) is not in the standard order", tc.name, i, u16(tpl, 4+4*i))
				}
				prev = pos
			}
			if n := u16(tpl, 2); n != bits.OnesCount16(uint16(tc.cols)) {
				t.Errorf("%s: the template has %d fields for %d columns", tc.name, n, bits.OnesCount16(uint16(tc.cols)))
			}
			var got flowrec.Batch
			if n, err := fr.decoder().DecodeBatch(&got, msg); err != nil || n != full.Len() {
				t.Fatalf("%s: decoded %d rows, err %v", tc.name, n, err)
			}
			want := full.Project(flowrec.AllColumns)
			v := reflect.ValueOf(want).Elem()
			for c := range flowrec.NumColumns {
				if !tc.cols.Has(flowrec.Columns(1) << c) {
					v.Field(c).Clear()
				}
			}
			if !got.Equal(want) {
				t.Errorf("%s: decoded rows are not the stored columns with the others zero", tc.name)
			}
		}
	})
}

// standardFields lists the field numbers of the full-width template, in
// the order the encoder writes them.
func standardFields(fr framing) []uint16 {
	return []uint16{8, 12, 1, 2, fr.startID, fr.endID, 7, 11, 4, 6, 61, 10, 14, 16, 17}
}

// Property: counters, ports, AS numbers and direction round-trip for
// arbitrary values.
func TestRoundTripQuick(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		enc, dec := fr.encoder(3), fr.decoder()
		f := func(sp, dp uint16, bytes, packets uint64, srcAS, dstAS uint32, dir bool) bool {
			recs, _ := sample(1)
			r := &recs[0]
			r.SrcPort, r.DstPort = sp, dp
			r.Bytes, r.Packets = bytes, packets
			r.SrcAS, r.DstAS = srcAS, dstAS
			if dir {
				r.Dir = flowrec.DirEgress
			}
			msg, err := enc(nil, flowrec.FromRecords(recs), 0, 1, export)
			if err != nil {
				return false
			}
			var got flowrec.Batch
			n, err := dec.DecodeBatch(&got, msg)
			return err == nil && n == 1 && got.Record(0) == *r
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}

// TestSequenceStep pins what the sequence number counts: packets in
// NetFlow v9, data records in IPFIX.
func TestSequenceStep(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		_, b := sample(5)
		enc := fr.encoder(1)
		m1, err := enc(nil, b, 0, 4, export)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := enc(nil, b, 4, 5, export)
		if err != nil {
			t.Fatal(err)
		}
		if s1, s2 := u32(m1, fr.seqOff), u32(m2, fr.seqOff); s1 != 0 || s2 != fr.seqStep(4) {
			t.Errorf("sequence numbers = %d, %d; want 0, %d", s1, s2, fr.seqStep(4))
		}
	})
}

// TestTemplateCache: data before its template is an error, a cached
// template serves later messages, and the cache is per exporter stream.
func TestTemplateCache(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		_, b := sample(2)
		msg := mustEncode(t, fr.encoder(5), b)
		bare := fr.stripTemplate(msg)
		dec := fr.decoder()
		var dst flowrec.Batch
		if _, err := dec.DecodeBatch(&dst, bare); err == nil {
			t.Error("data set without template accepted")
		}
		if _, err := dec.DecodeBatch(&dst, msg); err != nil {
			t.Fatal(err)
		}
		if n, err := dec.DecodeBatch(&dst, bare); err != nil || n != 2 {
			t.Errorf("cached template not used: %d rows, err %v", n, err)
		}
		other := fr.stripTemplate(mustEncode(t, fr.encoder(6), b))
		if _, err := dec.DecodeBatch(&dst, other); err == nil {
			t.Error("template from another stream was reused")
		}
		// Re-announcing a template ID with other fields replaces the entry.
		dst.Reset()
		for _, port := range []uint16{7, 11} { // source port, then destination port
			if _, err := dec.DecodeBatch(&dst, fr.message(300, [][2]uint16{{port, 2}}, []byte{0x01, 0xbb})); err != nil {
				t.Fatal(err)
			}
		}
		if dst.Len() != 2 || dst.SrcPort[0] != 0x01bb || dst.DstPort[0] != 0 || dst.SrcPort[1] != 0 || dst.DstPort[1] != 0x01bb {
			t.Errorf("changed template not picked up: ports %v / %v", dst.SrcPort, dst.DstPort)
		}
	})
}

func TestMalformed(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		_, b := sample(1)
		enc, dec := fr.encoder(0), fr.decoder()
		msg := mustEncode(t, enc, b)
		corrupt := func(edit func(m []byte) []byte) []byte {
			return edit(append([]byte{}, msg...))
		}
		type shape struct {
			name   string
			bad    []byte
			header bool // the header check alone refuses it, as a collector checks on arrival
		}
		shapes := []shape{
			{"short", msg[:fr.headerLen-1], true},
			{"v5 version", corrupt(func(m []byte) []byte { m[1] = 5; return m }), true},
			{"other family member", corrupt(func(m []byte) []byte {
				m[1] = byte(9 + 10 - fr.version)
				return m
			}), true},
			// IPFIX's length field no longer matches; v9's data set runs
			// past the message.
			{"cut short by a byte", msg[:len(msg)-1], fr.hasLength},
			{"absurd set length", corrupt(func(m []byte) []byte {
				m[fr.headerLen+2], m[fr.headerLen+3] = 0xff, 0xff
				return m
			}), false},
			{"set length below its own header", corrupt(func(m []byte) []byte {
				m[fr.headerLen+2], m[fr.headerLen+3] = 0, 3
				return m
			}), false},
			{"truncated template", corrupt(func(m []byte) []byte {
				m[fr.headerLen+7] = 200 // field count beyond the set
				return m
			}), false},
		}
		if fr.hasLength {
			shapes = append(shapes, shape{"wrong length field", corrupt(func(m []byte) []byte { m[2], m[3] = 0, 7; return m }), true})
		}
		for _, c := range shapes {
			if c.header && fr.f.CheckHeader(c.bad) == nil {
				t.Errorf("%s: passed the header check", c.name)
			}
			var dst flowrec.Batch
			if _, err := dec.DecodeBatch(&dst, c.bad); err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		}
		if _, err := enc(nil, b, 0, 0, export); err == nil {
			t.Error("empty encode accepted")
		}
	})
}

// TestEncodeAppendAndErrors verifies the append-style contract: messages
// accumulate in dst, and a failed encode leaves dst and the sequence
// number untouched.
func TestEncodeAppendAndErrors(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		recs, b := sample(10)
		enc := fr.encoder(1)
		buf, err := enc(nil, b, 0, 5, export)
		if err != nil {
			t.Fatal(err)
		}
		one := len(buf)
		if buf, err = enc(buf, b, 5, 10, export); err != nil {
			t.Fatal(err)
		}
		if len(buf) != 2*one {
			t.Fatalf("two appended messages occupy %d bytes, want %d", len(buf), 2*one)
		}
		dec := fr.decoder()
		var got flowrec.Batch
		for _, m := range [][]byte{buf[:one], buf[one:]} {
			if _, err := dec.DecodeBatch(&got, m); err != nil {
				t.Errorf("appended message does not decode: %v", err)
			}
		}
		if !reflect.DeepEqual(got.Records(), recs) {
			t.Error("rows of the two appended messages differ from the input")
		}
		for name, fail := range map[string]func() ([]byte, error){
			"empty range":   func() ([]byte, error) { return enc(buf, b, 3, 3, export) },
			"too many rows": func() ([]byte, error) { return enc(buf, bigBatch(fr.maxRows+1), 0, fr.maxRows+1, export) },
		} {
			if got, err := fail(); err == nil || len(got) != len(buf) {
				t.Errorf("%s: err %v, dst %d -> %d bytes; want an error and dst unchanged", name, err, len(buf), len(got))
			}
		}
		next, err := enc(nil, b, 0, 1, export)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := u32(next, fr.seqOff), fr.seqStep(5)+fr.seqStep(5); got != want {
			t.Errorf("sequence after failed encodes = %d, want %d (failures must not consume it)", got, want)
		}
	})
}

// bigBatch returns n copies of one row.
func bigBatch(n int) *flowrec.Batch {
	recs, _ := sample(1)
	b := flowrec.NewBatch(n)
	for i := 0; i < n; i++ {
		b.Append(recs[0])
	}
	return b
}

// TestLengthLimit is the boundary of one UDP datagram: the largest
// full-width range 65 507 bytes hold encodes and round-trips, one row
// more is refused instead of leaving as a message no datagram carries (or
// one that wraps a 16-bit length, which the decoder would then reject or,
// worse, misparse).
func TestLengthLimit(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		if n := fr.f.MaxRecords(flowrec.AllColumns); n != fr.maxRows {
			t.Errorf("MaxRecords(AllColumns) = %d, want %d", n, fr.maxRows)
		}
		b := bigBatch(fr.maxRows + 1)
		enc := fr.encoder(1)
		msg, err := enc(nil, b, 0, fr.maxRows, export)
		if err != nil {
			t.Fatalf("%d rows refused: %v", fr.maxRows, err)
		}
		var got flowrec.Batch
		if n, err := fr.decoder().DecodeBatch(&got, msg); err != nil || n != fr.maxRows {
			t.Fatalf("%d rows decoded as %d, err %v", fr.maxRows, n, err)
		}
		if got.Record(fr.maxRows-1) != b.Record(0) {
			t.Error("last row of the largest message differs from the input")
		}
		if over, err := enc(msg, b, 0, fr.maxRows+1, export); err == nil || len(over) != len(msg) {
			t.Errorf("%d rows: err %v, dst %d -> %d bytes; want an error and dst unchanged", fr.maxRows+1, err, len(msg), len(over))
		}
	})
}

// TestMaxRecordsFillsDatagram is the same boundary for every column set:
// the count MaxRecords computes encodes into one datagram and decodes
// whole, and one record more is refused by EncodeBatch's length check.
// The message length depends on a set only through its field count and
// record length, so one set of each such shape stands for all of them.
func TestMaxRecordsFillsDatagram(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		// Wire widths in column bit order (StartNs ... TCPFlags).
		widths := [flowrec.NumColumns]int{4, 4, 4, 4, 2, 2, 1, 8, 8, 4, 4, int(fr.ifLen), int(fr.ifLen), 1, 1}
		seen := map[[2]int]bool{}
		for cols := flowrec.Columns(1); cols <= flowrec.AllColumns; cols++ {
			recLen := 0
			for c, w := range widths {
				if cols.Has(flowrec.Columns(1) << c) {
					recLen += w
				}
			}
			shape := [2]int{bits.OnesCount16(uint16(cols)), recLen}
			if seen[shape] {
				continue
			}
			seen[shape] = true
			n := fr.f.MaxRecords(cols)
			b := bigBatch(n + 1).Project(cols)
			enc := fr.encoder(1)
			msg, err := enc(nil, b, 0, n, export)
			if err != nil || len(msg) > 65507 {
				t.Fatalf("%s: %d records: %d bytes, err %v; want one datagram", cols, n, len(msg), err)
			}
			if got, err := fr.decoder().DecodeBatch(flowrec.NewProjected(0, cols), msg); err != nil || got != n {
				t.Fatalf("%s: %d records decoded as %d, err %v", cols, n, got, err)
			}
			if over, err := enc(msg, b, 0, n+1, export); err == nil || len(over) != len(msg) {
				t.Errorf("%s: %d records: err %v, dst %d -> %d bytes; want an error and dst unchanged", cols, n+1, err, len(msg), len(over))
			}
		}
		if len(seen) < 100 {
			t.Fatalf("only %d shapes of column set", len(seen))
		}
	})
}

// TestDecodeReuse feeds many messages into one reused batch and decoder,
// the steady-state collector pattern, and checks the rows concatenate.
func TestDecodeReuse(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		recs, b := sample(20)
		enc, dec := fr.encoder(3), fr.decoder()
		var dst flowrec.Batch
		var msg []byte
		for i := 0; i < 4; i++ {
			var err error
			if msg, err = enc(msg[:0], b, 0, b.Len(), export); err != nil {
				t.Fatal(err)
			}
			if _, err := dec.DecodeBatch(&dst, msg); err != nil {
				t.Fatal(err)
			}
		}
		if dst.Len() != 4*len(recs) {
			t.Fatalf("reused batch holds %d rows, want %d", dst.Len(), 4*len(recs))
		}
		if !reflect.DeepEqual(dst.Records()[3*len(recs):], recs) {
			t.Error("last decoded chunk differs from the input")
		}

		// Two column sets alternating on one stream: their templates are
		// cached under their own IDs, so neither evicts the other and the
		// steady state allocates nothing.
		flows := mustEncode(t, enc, b.Project(core.FlowKey{Kind: core.KindFlows}.Columns()))
		vpn := mustEncode(t, enc, b.Project(core.FlowKey{Kind: core.KindVPNFlows}.Columns()))
		allocs := testing.AllocsPerRun(20, func() {
			for _, m := range [][]byte{flows, vpn} {
				dst.Reset()
				if _, err := dec.DecodeBatch(&dst, m); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("alternating two column sets: %.1f allocs a run, want 0", allocs)
		}
	})
}

// TestDecodeRollsBackOnError ensures a bad set does not leave partial rows
// in the destination batch.
func TestDecodeRollsBackOnError(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		recs, b := sample(4)
		msg := mustEncode(t, fr.encoder(1), b)
		// Append a second data set whose length runs past the message, so
		// the set walk fails after four rows were already appended.
		msg = fr.setLength(append(msg, msg[fr.headerLen+68:fr.headerLen+72]...))
		dst := flowrec.FromRecords(recs[:1])
		if _, err := fr.decoder().DecodeBatch(dst, msg); err == nil {
			t.Fatal("corrupted message should fail to decode")
		}
		if dst.Len() != 1 {
			t.Errorf("failed decode left %d rows in the batch, want the 1 it held", dst.Len())
		}
	})
}

// TestHostileTemplates: template-declared lengths are untrusted. Fields
// narrower than their natural width decode zero-extended, zero-length
// fields carry no value (and must not reach the single-byte reads), and
// unknown fields and reserved sets are skipped.
func TestHostileTemplates(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		decode := func(msg []byte) (*flowrec.Batch, error) {
			var b flowrec.Batch
			n, err := fr.decoder().DecodeBatch(&b, msg)
			if err == nil && n != b.Len() {
				t.Fatalf("DecodeBatch returned %d rows but appended %d", n, b.Len())
			}
			return &b, err
		}

		b, err := decode(shortFields(fr))
		if err != nil || b.Len() != 1 {
			t.Fatalf("short fields: %d rows, err %v", b.Len(), err)
		}
		if got := b.StartAt(0).Unix(); got != 0x5e7b || b.SrcPort[0] != 0x21 || b.Bytes[0] != 0x010203 {
			t.Errorf("short fields decoded as start %#x port %#x bytes %#x", got, b.SrcPort[0], b.Bytes[0])
		}

		b, err = decode(zeroLengthField(fr))
		if err != nil || b.Len() != 1 {
			t.Fatalf("zero-length field: %d rows, err %v", b.Len(), err)
		}
		if b.SrcPort[0] != 0x01bb || b.Proto[0] != 0 {
			t.Errorf("zero-length field decoded as port %#x proto %d, want 0x1bb and 0", b.SrcPort[0], b.Proto[0])
		}

		// Every announced width from one to eight bytes reads big-endian,
		// unsigned, with its top byte in bits 56-63 at eight.
		counters := [][]byte{{0xff}, {1, 0, 0, 0, 0, 0, 0, 0}}
		for w := 1; w <= 8; w++ {
			counters = append(counters, []byte{1, 2, 3, 4, 5, 6, 7, 8}[:w])
		}
		for _, data := range counters {
			w := len(data)
			b, err := decode(fr.message(300, [][2]uint16{{1, uint16(w)}}, data))
			var want uint64
			for _, x := range data {
				want = want<<8 | uint64(x)
			}
			if err != nil || b.Len() != 1 || b.Bytes[0] != want {
				t.Errorf("%d-byte counter: %d rows, err %v, value %#x want %#x", w, b.Len(), err, b.Bytes, want)
			}
		}

		// Field 999 is unknown: its bytes are skipped, the port after it is read.
		b, err = decode(fr.message(300, [][2]uint16{{999, 3}, {7, 2}}, []byte{9, 9, 9, 0x01, 0xbb}))
		if err != nil || b.Len() != 1 || b.SrcPort[0] != 0x01bb {
			t.Errorf("unknown field: %d rows, err %v", b.Len(), err)
		}
		// The other member's timestamp fields are unknown to this one.
		other := framings[0]
		if fr.name == other.name {
			other = framings[1]
		}
		b, err = decode(fr.message(300, [][2]uint16{{other.startID, 4}, {7, 2}}, []byte{0x5e, 0x7b, 0, 0, 0x01, 0xbb}))
		if err != nil || b.Len() != 1 || b.StartNs[0] != 0 || b.SrcPort[0] != 0x01bb {
			t.Errorf("foreign timestamp field: %d rows, err %v, start %v", b.Len(), err, b.StartNs)
		}

		if _, err := decode(fr.message(300, [][2]uint16{{4, 0}}, []byte{1, 2})); err == nil {
			t.Error("data set for a template of zero record length accepted")
		}

		// A reserved set (ID 1: v9 options template; below 256 and not
		// this framing's template set) is skipped, the data set after it
		// still decodes.
		msg := shortFields(fr)
		reserved := []byte{0, 1, 0, 8, 0xde, 0xad, 0xbe, 0xef}
		msg = fr.setLength(append(msg[:fr.headerLen:fr.headerLen], append(reserved, msg[fr.headerLen:]...)...))
		if b, err := decode(msg); err != nil || b.Len() != 1 {
			t.Errorf("reserved set: %d rows, err %v", b.Len(), err)
		}
	})
}

// shortFields declares numeric fields narrower than their natural width
// (a timestamp in 2 bytes, a port in 1, a counter in 3): the shape that
// crashed the decoders before beUint took whatever width was announced.
func shortFields(fr framing) []byte {
	return fr.message(300, [][2]uint16{{fr.startID, 2}, {7, 1}, {1, 3}},
		[]byte{0x5e, 0x7b, 0x21, 0x01, 0x02, 0x03})
}

// zeroLengthField declares a zero-length single-byte field (protocol)
// next to a real one: the shape that panicked the decoders' v[0] reads
// before zero-length fields were skipped.
func zeroLengthField(fr framing) []byte {
	return fr.message(301, [][2]uint16{{4, 0}, {7, 2}}, []byte{0x01, 0xbb})
}

// TestDecodeRefusesProjected (a name kept from when a projected batch
// was refused): a message decodes into the columns the batch stores and
// no others — exactly the input projected to its set, every absent column
// still nil, the fields of the others skipped — and a message that fails
// to decode leaves the batch as it was.
func TestDecodeRefusesProjected(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		_, full := sample(10)
		msg := mustEncode(t, fr.encoder(1), full)
		sets := []flowrec.Columns{flowrec.ColBytes | flowrec.ColDstPort}
		for c := 0; c < flowrec.NumColumns; c++ {
			sets = append(sets, flowrec.AllColumns&^(flowrec.Columns(1)<<c))
		}
		for _, cols := range sets {
			dst := flowrec.NewProjected(0, cols)
			dec := fr.decoder()
			if n, err := dec.DecodeBatch(dst, msg); err != nil || n != full.Len() {
				t.Fatalf("%s: %d rows, err %v; want %d", cols, n, err, full.Len())
			}
			want := full.Project(cols)
			if !dst.Equal(want) {
				t.Errorf("%s: the decoded batch is not the input projected to its columns", cols)
			}
			v := reflect.ValueOf(dst).Elem()
			for c := range flowrec.NumColumns {
				if !cols.Has(flowrec.Columns(1)<<c) && !v.Field(c).IsNil() {
					t.Errorf("%s: absent column %s was filled", cols, flowrec.Columns(1)<<c)
				}
			}
			bad := fr.setLength(append(slices.Clone(msg), msg[fr.headerLen+68:fr.headerLen+72]...))
			if _, err := dec.DecodeBatch(dst, bad); err == nil {
				t.Errorf("%s: a data set running past the message decoded", cols)
			}
			if !dst.Equal(want) {
				t.Errorf("%s: the failed decode modified the batch", cols)
			}
		}
	})
}

// BenchmarkDecodeBatch times the decoder alone in the steady-state collect
// loop: one 100-row message of generated ISP flows, its template
// re-announced in every message as the encoders do, decoded into one
// reused batch. It reports ns/row; CI gates it at 0 allocs/op.
func BenchmarkDecodeBatch(b *testing.B) {
	src := synth.MustNewDefault(synth.ISPCE).FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
	for _, fr := range framings {
		b.Run(fr.name, func(b *testing.B) {
			msg, err := fr.encoder(1)(nil, src, 0, 100, export)
			if err != nil {
				b.Fatal(err)
			}
			dec, dst := fr.decoder(), flowrec.NewBatch(100)
			if _, err := dec.DecodeBatch(dst, msg); err != nil { // caches the template
				b.Fatal(err)
			}
			rows := 0
			b.ReportAllocs()
			for b.Loop() {
				dst.Reset()
				n, err := dec.DecodeBatch(dst, msg)
				if err != nil {
					b.Fatal(err)
				}
				rows += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
		})
	}
}
