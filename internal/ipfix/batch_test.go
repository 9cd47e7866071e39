package ipfix

import (
	"testing"
	"time"

	"lockdown/internal/flowrec"
)

// TestEncodeBatchAppendAndErrors verifies the append-style contracts.
func TestEncodeBatchAppendAndErrors(t *testing.T) {
	export := time.Date(2020, 3, 25, 20, 30, 0, 0, time.UTC)
	b := flowrec.FromRecords(sample(10))
	enc := &Encoder{DomainID: 1}
	buf, err := enc.EncodeBatch(nil, b, 0, 5, export)
	if err != nil {
		t.Fatal(err)
	}
	one := len(buf)
	buf, err = enc.EncodeBatch(buf, b, 5, 10, export)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2*one {
		t.Fatalf("two appended messages occupy %d bytes, want %d", len(buf), 2*one)
	}
	dec := NewDecoder()
	if _, err := decode(dec, buf[:one]); err != nil {
		t.Errorf("first appended message does not decode: %v", err)
	}
	if _, err := decode(dec, buf[one:]); err != nil {
		t.Errorf("second appended message does not decode: %v", err)
	}
	seqBefore := enc.seq
	if got, err := enc.EncodeBatch(buf, b, 3, 3, export); err == nil || len(got) != len(buf) {
		t.Error("empty range should error and leave dst unchanged")
	}
	if enc.seq != seqBefore {
		t.Error("failed encode must not consume sequence numbers")
	}
}
