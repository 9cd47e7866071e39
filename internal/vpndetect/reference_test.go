package vpndetect

import (
	"testing"

	"lockdown/internal/flowrec"
)

// splitRef is the per-row oracle of SplitBatchSums: each row's bytes
// added to its method through ClassifyAt, indexed NotVPN, ByPort,
// ByDomain.
func splitRef(d *Detector, b *flowrec.Batch) [3]uint64 {
	var sums [3]uint64
	for i := 0; i < b.Len(); i++ {
		sums[d.ClassifyAt(b, i)] += b.Bytes[i]
	}
	return sums
}

// splitMatchesRef fails t unless SplitBatchSums of b equals splitRef,
// and returns the sums.
func splitMatchesRef(t *testing.T, d *Detector, b *flowrec.Batch) [3]uint64 {
	t.Helper()
	var got [3]uint64
	d.SplitBatchSums(&got, b)
	if want := splitRef(d, b); got != want {
		t.Fatalf("SplitBatchSums = %v, per-row reference %v", got, want)
	}
	return got
}

// classifyRecord is ClassifyAt on a one-row batch holding r.
func classifyRecord(d *Detector, r flowrec.Record) Method {
	return d.ClassifyAt(flowrec.FromRecords([]flowrec.Record{r}), 0)
}
