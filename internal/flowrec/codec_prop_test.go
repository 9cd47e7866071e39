package flowrec_test

import (
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/netflow"
)

// TestPropZeroTimeGuardAcrossCodecs: the unset-timestamp guard (zero
// time ↔ 0 in the StartNs/EndNs columns) survives full encode/decode
// round trips through the NetFlow v9 and IPFIX codecs, alongside every
// other column.
func TestPropZeroTimeGuardAcrossCodecs(t *testing.T) {
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	prop := func(recs recordSample) bool {
		if len(recs) == 0 {
			return true
		}
		b := flowrec.FromRecords(recs)

		var v9e netflow.V9Encoder
		pkt, err := v9e.EncodeBatch(nil, b, 0, b.Len(), export)
		if err != nil {
			return false
		}
		v9out := flowrec.NewBatch(b.Len())
		if _, err := netflow.NewV9Decoder().DecodeBatch(v9out, pkt); err != nil {
			return false
		}

		var ipe ipfix.Encoder
		msg, err := ipe.EncodeBatch(nil, b, 0, b.Len(), export)
		if err != nil {
			return false
		}
		ipout := flowrec.NewBatch(b.Len())
		if _, err := ipfix.NewDecoder().DecodeBatch(ipout, msg); err != nil {
			return false
		}

		for _, out := range []*flowrec.Batch{v9out, ipout} {
			if out.Len() != b.Len() {
				return false
			}
			for i := 0; i < b.Len(); i++ {
				if out.StartNs[i] != b.StartNs[i] || out.EndNs[i] != b.EndNs[i] {
					return false
				}
				if out.StartAt(i).IsZero() != b.StartAt(i).IsZero() {
					return false
				}
				if out.Record(i) != b.Record(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Fatal(err)
	}
}
