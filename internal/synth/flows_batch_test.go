package synth

import (
	"reflect"
	"testing"
	"time"

	"lockdown/internal/flowrec"
)

// TestFlowsForHourBatchMatchesRecords pins the generated batch to its
// record view: materialising the hour as records and converting them back
// must reproduce the generated batch column for column.
func TestFlowsForHourBatchMatchesRecords(t *testing.T) {
	g := MustNewDefault(ISPCE)
	probe := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	b := g.FlowsForHourBatch(probe)
	if b.Len() == 0 {
		t.Fatal("expected flows for the probe hour")
	}
	if !reflect.DeepEqual(flowrec.FromRecords(g.FlowsForHourBatch(probe).Records()), b) {
		t.Error("the hour's records do not round-trip to the generated batch")
	}
}

// TestFlowsForHourBatchDeterministic re-samples the same hour and expects
// byte-identical columns (the dataset-cache sharing contract).
func TestFlowsForHourBatchDeterministic(t *testing.T) {
	g := MustNewDefault(IXPCE)
	probe := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	if !reflect.DeepEqual(g.FlowsForHourBatch(probe), g.FlowsForHourBatch(probe)) {
		t.Error("re-sampling the same component-hour produced different batches")
	}
}

// TestFlowsBetweenBatchConcatenatesHours checks the multi-hour sampler
// equals the per-hour batches appended in order.
func TestFlowsBetweenBatchConcatenatesHours(t *testing.T) {
	g := MustNewDefault(EDU)
	from := time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)
	to := from.Add(5 * time.Hour)
	got := g.FlowsBetweenBatch(from, to)
	want := flowrec.NewBatch(0)
	for h := from; h.Before(to); h = h.Add(time.Hour) {
		want.AppendBatch(g.FlowsForHourBatch(h))
	}
	if got.Len() == 0 || got.Len() != want.Len() {
		t.Fatalf("FlowsBetweenBatch has %d rows, concatenated hours %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Error("FlowsBetweenBatch differs from the concatenated per-hour batches")
	}
}
