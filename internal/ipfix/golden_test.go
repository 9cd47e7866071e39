package ipfix

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// TestGoldenPackets pins the wire bytes: rows [0, 1036) of a fixed
// synthetic hour, exported by one fresh encoder as observation domain 7
// in 28 messages of 37 rows at a fixed time, must concatenate to the
// committed length and SHA-256 and decode back row for row. (Same input
// and shape as netflow.TestGoldenV9Packets.)
func TestGoldenPackets(t *testing.T) {
	const rows = 1036
	hour := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	src := synth.MustNewDefault(synth.ISPCE).FlowsForHourBatch(hour)
	if src.Len() < rows {
		t.Fatalf("synthetic hour has %d rows, the golden messages need %d", src.Len(), rows)
	}
	enc := Encoder{DomainID: 7}
	dec := NewDecoder()
	var wire []byte
	var got flowrec.Batch
	for lo := 0; lo < rows; lo += 37 {
		start := len(wire)
		var err error
		if wire, err = enc.EncodeBatch(wire, src, lo, lo+37, hour.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if n, err := dec.DecodeBatch(&got, wire[start:]); err != nil || n != 37 {
			t.Fatalf("message at row %d decoded %d rows, err %v", lo, n, err)
		}
	}
	const wantLen, wantSHA = 59444, "a5c63df5dfa98d4c80af9e47798d4fbbdd93cf6299f280731956ce59607f9d3f"
	sum := sha256.Sum256(wire)
	if got := hex.EncodeToString(sum[:]); len(wire) != wantLen || got != wantSHA {
		t.Errorf("wire bytes changed: %d bytes sha256 %s, want %d bytes %s", len(wire), got, wantLen, wantSHA)
	}
	if !reflect.DeepEqual(got.Records(), src.Records()[:rows]) {
		t.Error("decoded rows differ from the exported rows")
	}
}
