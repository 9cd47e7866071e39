package netflow

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// The golden-packet tests pin the wire bytes: a fixed synthetic hour is
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
	enc := V9Encoder{SourceID: goldenStream}
	dec := NewV9Decoder()
	var wire []byte
	var got flowrec.Batch
	for lo := 0; lo < goldenRows; lo += 37 {
		start := len(wire)
		var err error
		if wire, err = enc.EncodeBatch(wire, src, lo, lo+37, goldenExport); err != nil {
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

func TestGoldenV5Packets(t *testing.T) {
	src := goldenBatch(t)
	var wire []byte
	var got flowrec.Batch
	for lo := 0; lo < goldenRows; lo += V5MaxRecords {
		hi := min(lo+V5MaxRecords, goldenRows)
		start := len(wire)
		var err error
		if wire, err = EncodeV5StreamBatch(wire, src, lo, hi, goldenExport, uint32(lo), goldenStream); err != nil {
			t.Fatal(err)
		}
		h, err := DecodeV5Batch(&got, wire[start:])
		if err != nil || h.Count != hi-lo || h.FlowSequence != uint32(lo) || !h.ExportTime.Equal(goldenExport) {
			t.Fatalf("packet at row %d decoded header %+v, err %v", lo, h, err)
		}
		if id := V5EngineID(wire[start:]); id != goldenStream {
			t.Fatalf("packet at row %d carries engine ID %d, want %d", lo, id, goldenStream)
		}
	}
	checkGolden(t, wire, 50568, "6434ac2eb403f272f4e5ee4d01b1ad561028176414a82858386ac344eafda10e")
	// v5 carries no direction and only the low 32 counter and 16 AS bits.
	want := src.Records()[:goldenRows]
	for i := range want {
		w := &want[i]
		w.Bytes, w.Packets = w.Bytes&0xFFFFFFFF, w.Packets&0xFFFFFFFF
		w.SrcAS, w.DstAS = w.SrcAS&0xFFFF, w.DstAS&0xFFFF
		w.Dir = 0
	}
	if !reflect.DeepEqual(got.Records(), want) {
		t.Error("decoded rows differ from the exported rows")
	}
}
