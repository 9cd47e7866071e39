package tmpl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
	"lockdown/internal/tmpl"
)

// The golden-packet test pins the wire bytes: a fixed synthetic hour is
// exported as a fixed stream at a fixed time, and the concatenated
// packets must hash to the committed value. 37 rows per v9 packet is
// deliberate — 4+37*51 is not a multiple of four, so the 1-byte flowset
// padding is part of what is pinned.
const (
	goldenRows   = 1036
	goldenStream = 7
)

var (
	goldenHour   = time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	goldenExport = goldenHour.Add(time.Hour)
)

func goldenBatch(t *testing.T) *flowrec.Batch {
	t.Helper()
	b := synth.MustNewDefault(synth.ISPCE).FlowsForHourBatch(goldenHour)
	if b.Len() < goldenRows {
		t.Fatalf("synthetic hour has %d rows, the golden packets need %d", b.Len(), goldenRows)
	}
	return b
}

func checkGolden(t *testing.T, wire []byte, wantLen int, wantSHA string) {
	t.Helper()
	sum := sha256.Sum256(wire)
	if got := hex.EncodeToString(sum[:]); len(wire) != wantLen || got != wantSHA {
		t.Errorf("wire bytes changed: %d bytes sha256 %s, want %d bytes %s", len(wire), got, wantLen, wantSHA)
	}
}

func TestGoldenV9Packets(t *testing.T) {
	src := goldenBatch(t)
	dec := tmpl.NewDecoder(&tmpl.V9)
	var wire []byte
	var seq uint32
	var got flowrec.Batch
	for lo := 0; lo < goldenRows; lo += 37 {
		start := len(wire)
		var err error
		if wire, err = tmpl.V9.EncodeBatch(wire, src, lo, lo+37, goldenExport, goldenStream, &seq); err != nil {
			t.Fatal(err)
		}
		if n, err := dec.DecodeBatch(&got, wire[start:]); err != nil || n != 37 {
			t.Fatalf("packet at row %d decoded %d rows, err %v", lo, n, err)
		}
	}
	checkGolden(t, wire, 55440, "039cef45263c72a400f50331d73d7049b86598c6dfb5ad8edcfbb4e6e47111b6")
	if !reflect.DeepEqual(got.Records(), src.Records()[:goldenRows]) {
		t.Error("decoded rows differ from the exported rows")
	}
}
