package synth

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/calendar"
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

// TestComponentBatchConcatenatesHours: a day, sampled in one batch,
// equals its 24 HourBatch hours appended in order, column for column, and
// so do the pieces ComponentStream hands its fold: one a non-empty hour,
// in hour order, each as long as HourFlows counts its hour — for
// every component of the IXP-SE (gaming is the one the suite reads by the
// day) and for every component at once (the flows/ and vpn-flows/ keys) at
// every vantage point, plain and gateway-pinned; the probe days of the
// sampler tests, every column set of samplerColumnSets, seeds 0 and 7, and
// flow scales 0.5 and boundaryScale. A name the model lacks is an empty
// batch of the set, and streams nothing.
//
// A day's hours are drawn once, at full width, and projected to each set:
// TestHourBatchMasksStoresOnly and TestSamplerMatchesReference pin an hour
// drawn for a set as the full-width hour projected to it. Generators are
// safe for concurrent use (TestSamplerMatchesReference), so each one runs
// as a parallel subtest.
func TestComponentBatchConcatenatesHours(t *testing.T) {
	sets := samplerColumnSets()
	// check compares the day batch of component (every component when
	// empty) in every set with the day's hours, drawn at full width.
	check := func(t *testing.T, g *Generator, component string) {
		for _, probe := range samplerHours {
			day := probe.Truncate(24 * time.Hour)
			full := flowrec.NewBatch(0)
			for h := day; h.Before(day.Add(24 * time.Hour)); h = h.Add(time.Hour) {
				hb := g.HourBatch(h, component, flowrec.AllColumns)
				full.AppendBatch(hb)
				hb.Release()
			}
			counts := g.HourFlows(component, day, day.Add(24*time.Hour))
			for _, cols := range sets {
				got := g.ComponentBatch(component, day, day.Add(24*time.Hour), cols)
				if got.Len() == 0 || !got.Equal(full.Project(cols)) {
					t.Errorf("%s %s, columns %s: the day batch (%d rows) differs from its %d hourly rows",
						component, day.Format("2006-01-02"), cols, got.Len(), full.Len())
				}
				streamed, last := flowrec.NewProjected(0, cols), -1
				rows := g.ComponentStream(component, day, day.Add(24*time.Hour), cols, func(h int, piece *flowrec.Batch) {
					if h <= last || piece.Len() == 0 || piece.Len() != counts[h] {
						t.Errorf("%s %s, columns %s: a piece of hour %d (%d rows, the hour has %d) after hour %d",
							component, day.Format("2006-01-02"), cols, h, piece.Len(), counts[h], last)
					}
					last = h
					streamed.AppendBatch(piece)
				})
				if rows != got.Len() || !streamed.Equal(got) {
					t.Errorf("%s %s, columns %s: the stream's pieces (%d rows, %d counted) differ from the day batch of %d",
						component, day.Format("2006-01-02"), cols, streamed.Len(), rows, got.Len())
				}
				got.Release()
			}
		}
	}
	for _, scale := range []float64{0.5, boundaryScale} {
		for _, seed := range []int64{0, 7} {
			g := samplerCase{vp: IXPSE}.generator(t, seed, scale)
			for i := range g.plan {
				name := g.plan[i].c.Name
				t.Run(fmt.Sprintf("scale=%g/seed=%d/%s/%s", scale, seed, IXPSE, name), func(t *testing.T) {
					t.Parallel()
					check(t, g, name)
				})
			}
			for _, tc := range samplerCases() {
				if tc.component != "" {
					continue
				}
				g := tc.generator(t, seed, scale)
				name := string(tc.vp)
				if tc.pinned {
					name += "-pinned"
				}
				t.Run(fmt.Sprintf("scale=%g/seed=%d/%s", scale, seed, name), func(t *testing.T) {
					t.Parallel()
					check(t, g, "")
				})
			}
		}
	}
	day := samplerHours[1].Truncate(24 * time.Hour)
	if b := MustNewDefault(IXPSE).ComponentBatch("no-such-component", day, day.Add(24*time.Hour), flowrec.ColBytes); b.Len() != 0 || b.Columns() != flowrec.ColBytes {
		t.Errorf("an unknown component must yield an empty batch of the asked set, got %s × %d", b.Columns(), b.Len())
	}
	if n := MustNewDefault(IXPSE).ComponentStream("no-such-component", day, day.Add(24*time.Hour), flowrec.ColBytes, func(h int, _ *flowrec.Batch) {
		t.Errorf("an unknown component streamed a piece of hour %d", h)
	}); n != 0 {
		t.Errorf("an unknown component streamed %d rows", n)
	}
}

// TestHourFlowsCountsHourBatch: the model's row count of an hour, which
// places an hour's rows in a day batch, is the length of that hour's
// batch, for every hour of the study window, every vantage point, the
// gateway-pinned generator and one component.
func TestHourFlowsCountsHourBatch(t *testing.T) {
	for _, tc := range samplerCases() {
		g := tc.generator(t, 0, 0.5)
		counts := g.HourFlows(tc.component, calendar.StudyStart, calendar.StudyEnd)
		if want := int(calendar.StudyEnd.Sub(calendar.StudyStart) / time.Hour); len(counts) != want {
			t.Fatalf("%+v: %d hour counts, want %d", tc, len(counts), want)
		}
		for i, n := range counts {
			h := calendar.StudyStart.Add(time.Duration(i) * time.Hour)
			b := g.HourBatch(h, tc.component, flowrec.ColBytes)
			if b.Len() != n {
				t.Errorf("%+v %v: the model counts %d rows, the hour's batch has %d", tc, h, n, b.Len())
			}
			b.Release()
		}
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
