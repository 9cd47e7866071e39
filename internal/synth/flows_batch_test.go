package synth

import (
	"net/netip"
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

// TestHourBatchMasksStoresOnly: whatever columns HourBatch is asked to
// store, the sampler draws the same rows — each stored column equals the
// full-width hour's, every other column is nil — for the three sets the
// dataset cache generates with (22, 21 and 12 bytes a row), every single
// column, and all fifteen; for the whole hour and for one component.
func TestHourBatchMasksStoresOnly(t *testing.T) {
	ports := flowrec.PortLaneColumns
	sets := []flowrec.Columns{
		ports | flowrec.ColBytes | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir,
		ports | flowrec.ColBytes | flowrec.ColSrcIP | flowrec.ColDstIP,
		flowrec.ColBytes | flowrec.ColDstIP,
		flowrec.AllColumns,
	}
	for i, want := range []int{22, 21, 12, flowrec.RowBytes} {
		if got := sets[i].RowBytes(); got != want {
			t.Errorf("set %s is %d bytes a row, want %d", sets[i], got, want)
		}
	}
	for c := 0; c < flowrec.NumColumns; c++ {
		sets = append(sets, 1<<c)
	}
	probe := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	// The gateway-pinned generator takes the sampler's one conditional
	// draw (VPN-over-TLS sources), so the masked stores are checked around it.
	pinned := MustNewDefault(IXPCE).WithVPNGateways([]netip.Addr{netip.MustParseAddr("10.99.0.1"), netip.MustParseAddr("10.99.0.2")})
	for _, tc := range []struct {
		name      string
		g         *Generator
		component string
	}{
		{"isp-ce", MustNewDefault(ISPCE), ""},
		{"ixp-ce-pinned", pinned, ""},
		{"ixp-se-gaming", MustNewDefault(IXPSE), "gaming"},
	} {
		full := tc.g.HourBatch(probe, tc.component, flowrec.AllColumns)
		if full.Len() == 0 {
			t.Fatalf("%s: no flows in the probe hour", tc.name)
		}
		for _, cols := range sets {
			got := tc.g.HourBatch(probe, tc.component, cols)
			if got.Columns() != cols || got.Len() != full.Len() {
				t.Fatalf("%s/%s: stores %s × %d rows, want %d", tc.name, cols, got.Columns(), got.Len(), full.Len())
			}
			if !got.Equal(full.Project(cols)) {
				t.Errorf("%s/%s: a stored column differs from the full-width hour's", tc.name, cols)
			}
			v := reflect.ValueOf(got).Elem()
			for f, c := 0, 0; f < v.NumField(); f++ {
				if v.Field(f).Kind() != reflect.Slice {
					continue
				}
				if absent := cols&(1<<c) == 0; absent != v.Field(f).IsNil() {
					t.Errorf("%s/%s: column %s nil = %v", tc.name, cols, v.Type().Field(f).Name, !absent)
				}
				c++
			}
		}
	}
	if b := MustNewDefault(IXPSE).HourBatch(probe, "no-such-component", flowrec.ColBytes); b.Len() != 0 || b.Columns() != flowrec.ColBytes {
		t.Errorf("an unknown component must yield an empty batch of the asked set, got %s × %d", b.Columns(), b.Len())
	}
}
