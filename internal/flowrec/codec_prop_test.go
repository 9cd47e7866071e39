package flowrec_test

import (
	"testing"
	"testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
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

		var outs []*flowrec.Batch
		for _, f := range []*tmpl.Framing{&tmpl.V9, &tmpl.IPFIX} {
			var seq uint32
			msg, err := f.EncodeBatch(nil, b, 0, b.Len(), export, 0, &seq)
			if err != nil {
				return false
			}
			out := flowrec.NewBatch(b.Len())
			if _, err := tmpl.NewDecoder(f).DecodeBatch(out, msg); err != nil {
				return false
			}
			outs = append(outs, out)
		}

		for _, out := range outs {
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
