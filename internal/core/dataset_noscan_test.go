package core

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// scannableHeap reads the runtime's own figure for the heap the GC has to
// walk, as of the collection that just finished.
func scannableHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestBatchMemoryIsNoscan is the end-to-end form of
// flowrec.TestBatchColumnsArePointerFree: nine dense days drawn from a
// dataset and kept add (almost) nothing to the heap the garbage collector
// scans. What does grow is the bookkeeping — the slice that keeps them,
// the Batch headers — bounded here at 2 % of the batch bytes; with
// netip.Addr columns the address half of every batch was scannable.
func TestBatchMemoryIsNoscan(t *testing.T) {
	d := NewDataset(Options{FlowScale: 2})
	day := time.Date(2020, 3, 23, 0, 0, 0, 0, time.UTC)
	// Build the model and the generator before the baseline is taken.
	if _, err := flowBatch(d, synth.ISPCE, day.AddDate(0, 0, -1)); err != nil {
		t.Fatal(err)
	}
	before := scannableHeap()
	kept := make([]*flowrec.Batch, 9)
	var batchBytes int64
	for i := range kept {
		b, err := flowBatch(d, synth.ISPCE, day.AddDate(0, 0, i))
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = b
		batchBytes += int64(b.Len() * b.Columns().RowBytes())
	}
	after := scannableHeap()
	runtime.KeepAlive(kept)
	grew := int64(after) - int64(before)
	t.Logf("%d batches, %.1f MB of columns; scannable heap %d -> %d bytes", len(kept), float64(batchBytes)/(1<<20), before, after)
	if limit := batchBytes / 50; grew > limit {
		t.Errorf("scannable heap grew by %d bytes while %d bytes of batches were added; want under 2 %% (%d): a column holds pointers again",
			grew, batchBytes, limit)
	}
}
