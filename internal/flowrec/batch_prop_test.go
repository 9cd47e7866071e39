// Property-based tests for the flowrec.Batch invariants, run against
// randomised record populations (testing/quick): record↔batch round
// trips, filter independence, pool reuse without aliasing, and the
// zero-time guard across wire-codec round trips (the codec side lives in
// an external test package to keep flowrec free of codec imports).
package flowrec_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/flowrec"
)

// genRecord draws one plausible wire-representable record: IPv4
// endpoints, whole-second timestamps (the resolution every codec
// carries), and occasionally the zero time (an unset timestamp).
func genRecord(rng *rand.Rand) flowrec.Record {
	addr := func() netip.Addr {
		return netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(254) + 1)})
	}
	ts := func() time.Time {
		if rng.Intn(8) == 0 {
			return time.Time{} // unset timestamps must survive everything
		}
		return time.Unix(1577836800+int64(rng.Intn(10_000_000)), 0).UTC()
	}
	start := ts()
	end := start
	if !start.IsZero() {
		end = start.Add(time.Duration(rng.Intn(300)) * time.Second)
	}
	return flowrec.Record{
		Start:    start,
		End:      end,
		SrcIP:    addr(),
		DstIP:    addr(),
		SrcPort:  uint16(rng.Intn(65536)),
		DstPort:  uint16(rng.Intn(65536)),
		Proto:    []flowrec.Proto{flowrec.ProtoTCP, flowrec.ProtoUDP, flowrec.ProtoGRE, flowrec.ProtoESP, flowrec.ProtoICMP}[rng.Intn(5)],
		Bytes:    rng.Uint64(),
		Packets:  rng.Uint64(),
		SrcAS:    rng.Uint32(),
		DstAS:    rng.Uint32(),
		InIf:     uint16(rng.Intn(65536)),
		OutIf:    uint16(rng.Intn(65536)),
		Dir:      flowrec.Direction(rng.Intn(3)),
		TCPFlags: uint8(rng.Intn(256)),
	}
}

// recordSample is a quick.Generator producing 0-200 random records.
type recordSample []flowrec.Record

func (recordSample) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(200)
	recs := make(recordSample, n)
	for i := range recs {
		recs[i] = genRecord(rng)
	}
	return reflect.ValueOf(recs)
}

var quickCfg = &quick.Config{MaxCount: 60}

// TestPropRoundTrip: FromRecords and Records are inverses, and row
// accessors agree with the records, for any record population.
func TestPropRoundTrip(t *testing.T) {
	prop := func(recs recordSample) bool {
		b := flowrec.FromRecords(recs)
		if b.Len() != len(recs) {
			return false
		}
		got := b.Records()
		if len(recs) == 0 {
			return got == nil // documented: empty batch yields nil
		}
		for i, r := range recs {
			if got[i] != r || b.Record(i) != r {
				return false
			}
			if !b.StartAt(i).Equal(r.Start) || b.StartAt(i).IsZero() != r.Start.IsZero() {
				return false
			}
			if b.ServerPortAt(i) != r.ServerPort() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropAppendBatchTruncate: AppendBatch concatenates exactly, and
// Truncate keeps a clean prefix with all columns in step.
func TestPropAppendBatchTruncate(t *testing.T) {
	prop := func(a, b recordSample, cut uint8) bool {
		ba, bb := flowrec.FromRecords(a), flowrec.FromRecords(b)
		ba.AppendBatch(bb)
		if ba.Len() != len(a)+len(b) {
			return false
		}
		all := append(append([]flowrec.Record{}, a...), b...)
		for i, r := range all {
			if ba.Record(i) != r {
				return false
			}
		}
		n := int(cut) % (len(all) + 1)
		ba.Truncate(n)
		if ba.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if ba.Record(i) != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropPoolReuseNoAliasing: rows copied out of a pooled batch (via
// Records or AppendBatch) stay intact when the batch is returned to the
// pool, reacquired and refilled with different data.
func TestPropPoolReuseNoAliasing(t *testing.T) {
	prop := func(a, b recordSample) bool {
		pooled := flowrec.GetProjected(len(a), flowrec.AllColumns)
		for _, r := range a {
			pooled.Append(r)
		}
		snapshot := pooled.Records()
		copied := flowrec.NewBatch(pooled.Len())
		copied.AppendBatch(pooled)
		pooled.Release()

		// Refill a pooled batch (likely the same backing arrays) with
		// different rows.
		reused := flowrec.GetProjected(len(b), flowrec.AllColumns)
		for _, r := range b {
			reused.Append(r)
		}
		for i, r := range a {
			if snapshot[i] != r || copied.Record(i) != r {
				return false
			}
		}
		reused.Release()
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropGrowResetKeepCapacity: Reset keeps capacity so refilling up to
// the previous length never reallocates the column arrays.
func TestPropGrowResetKeepCapacity(t *testing.T) {
	prop := func(recs recordSample) bool {
		if len(recs) == 0 {
			return true
		}
		b := flowrec.FromRecords(recs)
		capBefore := cap(b.Bytes)
		b.Reset()
		if b.Len() != 0 || cap(b.Bytes) != capBefore {
			return false
		}
		for _, r := range recs {
			b.Append(r)
		}
		return cap(b.Bytes) == capBefore && b.Len() == len(recs)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}
