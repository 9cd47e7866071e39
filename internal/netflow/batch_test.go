package netflow

import (
	"reflect"
	"testing"

	"lockdown/internal/flowrec"
)

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
