package appclass

import (
	"reflect"
	"testing"

	"lockdown/internal/flowrec"
)

// The per-row oracles of the batch scans: one map write per row through
// ClassifyAt / ClassifyEDUAt. VolumeByClassInto and EDUCounter must equal
// them, key presence included.

// volumeByClassRef adds each row's bytes to its class in sums.
func volumeByClassRef(c *Classifier, sums map[Class]uint64, b *flowrec.Batch) {
	for i := 0; i < b.Len(); i++ {
		sums[c.ClassifyAt(b, i)] += b.Bytes[i]
	}
}

// countEDURef counts the rows of b per Appendix B class and direction.
func countEDURef(b *flowrec.Batch) map[EDUClass]map[flowrec.Direction]int {
	out := make(map[EDUClass]map[flowrec.Direction]int)
	for i := 0; i < b.Len(); i++ {
		cls := ClassifyEDUAt(b, i)
		if out[cls] == nil {
			out[cls] = make(map[flowrec.Direction]int)
		}
		out[cls][b.Dir[i]]++
	}
	return out
}

// volumesMatchRef runs VolumeByClassInto over the batches into one map
// and fails t unless it equals volumeByClassRef over the same batches.
// It returns the scan's sums.
func volumesMatchRef(t *testing.T, c *Classifier, bs ...*flowrec.Batch) map[Class]uint64 {
	t.Helper()
	got, want := make(map[Class]uint64), make(map[Class]uint64)
	for _, b := range bs {
		c.VolumeByClassInto(got, b)
		volumeByClassRef(c, want, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VolumeByClassInto = %v, per-row reference %v", got, want)
	}
	return got
}

// eduCountsMatchRef fails t unless CountEDUByClassDirBatch of b equals
// countEDURef, and returns the counts.
func eduCountsMatchRef(t *testing.T, b *flowrec.Batch) map[EDUClass]map[flowrec.Direction]int {
	t.Helper()
	got, want := CountEDUByClassDirBatch(b), countEDURef(b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CountEDUByClassDirBatch = %v, per-row reference %v", got, want)
	}
	return got
}
