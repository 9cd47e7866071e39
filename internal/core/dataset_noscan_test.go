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
// flowrec.TestBatchColumnsArePointerFree: a dataset holding two hundred
// dense hours adds (almost) nothing to the heap the garbage collector
// scans. What does grow is the cache's own bookkeeping — map entries,
// keys, the Batch headers — bounded here at 2 % of the batch bytes; with
// netip.Addr columns the address half of every batch was scannable.
func TestBatchMemoryIsNoscan(t *testing.T) {
	d := NewDataset(Options{FlowScale: 2})
	defer d.Close()
	hour := time.Date(2020, 3, 23, 0, 0, 0, 0, time.UTC)
	// Build the model and the generator before the baseline is taken.
	if _, err := unpinned(d).flowBatch(synth.ISPCE, hour.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	before := scannableHeap()
	kept := make([]*flowrec.Batch, 200)
	var batchBytes int64
	for i := range kept {
		b, err := unpinned(d).flowBatch(synth.ISPCE, hour.Add(time.Duration(i)*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = b
		batchBytes += b.HeapBytes()
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
