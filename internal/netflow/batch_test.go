package netflow

import (
	"reflect"
	"testing"

	"lockdown/internal/flowrec"
)

// TestV5BatchAppendSemantics verifies the append-style contracts: packets
// accumulate in the destination buffer and errors leave it untouched.
func TestV5BatchAppendSemantics(t *testing.T) {
	b := flowrec.FromRecords(sampleRecords(10))
	buf, err := EncodeV5Batch(nil, b, 0, 5, export, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := len(buf)
	buf, err = EncodeV5Batch(buf, b, 5, 10, export, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2*one {
		t.Fatalf("two appended packets occupy %d bytes, want %d", len(buf), 2*one)
	}
	if _, _, err := decodeV5(buf[:one]); err != nil {
		t.Errorf("first appended packet does not decode: %v", err)
	}
	if _, _, err := decodeV5(buf[one:]); err != nil {
		t.Errorf("second appended packet does not decode: %v", err)
	}
	if got, err := EncodeV5Batch(buf, b, 0, 0, export, 0); err == nil || len(got) != len(buf) {
		t.Error("empty range should error and leave dst unchanged")
	}
}

// TestV9DecodeBatchReuse feeds many packets into one reused batch and
// decoder, the steady-state collector pattern, and checks the rows
// concatenate correctly and the template cache does not churn.
func TestV9DecodeBatchReuse(t *testing.T) {
	recs := sampleRecords(20)
	b := flowrec.FromRecords(recs)
	enc := &V9Encoder{SourceID: 3}
	dec := NewV9Decoder()
	var dst flowrec.Batch
	var pkt []byte
	for i := 0; i < 4; i++ {
		var err error
		pkt, err = enc.EncodeBatch(pkt[:0], b, 0, b.Len(), export)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeBatch(&dst, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Len() != 4*len(recs) {
		t.Fatalf("reused batch holds %d rows, want %d", dst.Len(), 4*len(recs))
	}
	first, err := decodeV9(NewV9Decoder(), pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Records()[3*len(recs):], first) {
		t.Error("last decoded chunk differs from a fresh decode")
	}
}

// TestV9DecodeBatchRollsBackOnError ensures a bad flowset does not leave
// partial rows in the destination batch.
func TestV9DecodeBatchRollsBackOnError(t *testing.T) {
	enc := &V9Encoder{SourceID: 1}
	pkt, err := encodeV9(enc, sampleRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the data flowset length (after the 20-byte header and the
	// 68-byte template set) so the set walk fails after the template parse.
	pkt[20+68+2] = 0xff
	pkt[20+68+3] = 0xff
	dec := NewV9Decoder()
	var dst flowrec.Batch
	if _, err := dec.DecodeBatch(&dst, pkt); err == nil {
		t.Fatal("corrupted packet should fail to decode")
	}
	if dst.Len() != 0 {
		t.Errorf("failed decode left %d rows in the batch", dst.Len())
	}
}

// TestDecodeV5RefusesProjected (a name kept from when a projected batch
// was refused): a v5 packet decodes into the columns the batch stores and
// no others — exactly the full-width decode projected to its set, every
// absent column still nil — and a packet that fails to decode leaves the
// batch as it was.
func TestDecodeV5RefusesProjected(t *testing.T) {
	full := flowrec.FromRecords(sampleRecords(10))
	pkt, err := EncodeV5Batch(nil, full, 0, full.Len(), export, 0)
	if err != nil {
		t.Fatal(err)
	}
	decoded := flowrec.NewBatch(0)
	if _, err := DecodeV5Batch(decoded, pkt); err != nil {
		t.Fatal(err)
	}
	sets := []flowrec.Columns{flowrec.ColBytes | flowrec.ColDstPort}
	for c := 0; c < flowrec.NumColumns; c++ {
		sets = append(sets, flowrec.AllColumns&^(flowrec.Columns(1)<<c))
	}
	for _, cols := range sets {
		dst := flowrec.NewProjected(0, cols)
		h, err := DecodeV5Batch(dst, pkt)
		if err != nil || h.Count != full.Len() {
			t.Fatalf("%s: header %+v, err %v; want %d records", cols, h, err, full.Len())
		}
		want := decoded.Project(cols)
		if !dst.Equal(want) {
			t.Errorf("%s: the decoded batch is not the full-width decode projected to its columns", cols)
		}
		v := reflect.ValueOf(dst).Elem()
		for c := 0; c < flowrec.NumColumns; c++ {
			if !cols.Has(flowrec.Columns(1)<<c) && !v.Field(c).IsNil() {
				t.Errorf("%s: absent column %s was filled", cols, flowrec.Columns(1)<<c)
			}
		}
		if _, err := DecodeV5Batch(dst, pkt[:len(pkt)-1]); err == nil {
			t.Errorf("%s: a truncated packet decoded", cols)
		}
		if !dst.Equal(want) {
			t.Errorf("%s: the failed decode modified the batch", cols)
		}
	}
}

// TestV5EncodesAbsentAsZero: the v5 record layout is fixed, so a field
// whose column the batch does not store is written as 0 — byte for byte
// the packet of the full-width batch with those columns zeroed — for each
// batch kind's column set and for a batch of one column.
func TestV5EncodesAbsentAsZero(t *testing.T) {
	full := flowrec.FromRecords(sampleRecords(10))
	for _, cols := range []flowrec.Columns{
		flowrec.PortLaneColumns | flowrec.ColBytes | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir,
		flowrec.PortLaneColumns | flowrec.ColSrcIP | flowrec.ColDstIP | flowrec.ColBytes,
		flowrec.ColBytes | flowrec.ColDstIP,
		flowrec.ColStartNs,
	} {
		got, err := EncodeV5Batch(nil, full.Project(cols), 2, 9, export, 4)
		if err != nil {
			t.Fatalf("%s: %v", cols, err)
		}
		zeroed := full.Project(flowrec.AllColumns)
		v := reflect.ValueOf(zeroed).Elem()
		for c := 0; c < flowrec.NumColumns; c++ {
			if !cols.Has(flowrec.Columns(1) << c) {
				v.Field(c).Clear()
			}
		}
		want, err := EncodeV5Batch(nil, zeroed, 2, 9, export, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the projected batch's packet differs from the zeroed full-width one's", cols)
		}
	}
	if _, err := EncodeV5Batch(nil, full.Project(flowrec.ColBytes), 5, 11, export, 0); err == nil {
		t.Error("rows past the batch's end accepted")
	}
}
