package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// fullWidthSource generates every column from a SyntheticSource's models:
// the reference the kind column sets are held against.
type fullWidthSource struct{ m *SyntheticSource }

func (s fullWidthSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)})
}

func (s fullWidthSource) VPNFlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindVPNFlows, VP: vp, Hour: DayOf(day)})
}

func (s fullWidthSource) ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindComponentFlows, VP: vp, Name: name, Hour: DayOf(day)})
}

// draw generates the hours of k's day its key holds, as the key names them.
func (s fullWidthSource) draw(k FlowKey) (*flowrec.Batch, error) {
	g, err := s.m.generator(k)
	if err != nil {
		return nil, err
	}
	from, to := k.span()
	return g.ComponentBatch(k.Name, from, to, flowrec.AllColumns), nil
}

// storedColumns returns the column set of every flow-batch entry of d,
// keyed by batch kind.
func storedColumns(d *Dataset) map[string]map[flowrec.Columns]int {
	out := make(map[string]map[flowrec.Columns]int)
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, fe := range d.flows {
		kind := key.Kind.String()
		if out[kind] == nil {
			out[kind] = make(map[flowrec.Columns]int)
		}
		out[kind][fe.cols]++
	}
	return out
}

// TestProjectedSuiteEqualsFullWidth is the under-declaration guard of the
// three kind column sets: the default engine, whose batches store only
// what the kind's readers declared, must produce all 21 results equal —
// modulo _runtime/ — to an engine fed full-width batches by the same
// models (fullWidthSource), at seeds 0 and 7; neither run holds anything
// afterwards. A reader that reads a column its kind's set lacks fails
// here whether it would have panicked on the nil column or (ranging over
// it) silently read nothing. Runs under -race -cpu 1,4 in CI.
func TestProjectedSuiteEqualsFullWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite four times")
	}
	for kind, want := range map[string]struct {
		cols  flowrec.Columns
		width int
	}{
		"flows":           {FlowKey{Kind: KindFlows}.Columns(), 22},
		"vpn-flows":       {FlowKey{Kind: KindVPNFlows}.Columns(), 21},
		"component-flows": {FlowKey{Kind: KindComponentFlows}.Columns(), 12},
	} {
		if got := want.cols.RowBytes(); got != want.width {
			t.Errorf("%s rows store %d bytes (%s), want %d", kind, got, want.cols, want.width)
		}
	}
	for _, seed := range []int64{0, 7} {
		opts := Options{FlowScale: 0.05, Seed: seed}
		run := func(e *Engine) ([]*Result, map[string]map[flowrec.Columns]int, float64) {
			t.Helper()
			rs, err := e.RunAll(context.Background(), 4)
			if err != nil {
				t.Fatalf("RunAll(%+v): %v", opts, err)
			}
			holdsNothing(t, fmt.Sprintf("seed %d", seed), e.Data())
			var mb float64
			for _, r := range rs {
				mb += r.Metrics[MetricBatchMB]
			}
			return rs, storedColumns(e.Data()), mb
		}
		full, fullCols, fullMB := run(NewEngineWithSource(opts, fullWidthSource{NewSyntheticSource(opts)}))
		got, gotCols, gotMB := run(NewEngine(opts))
		if len(full) != 21 {
			t.Fatalf("%d results, want the 21 experiments", len(full))
		}
		requireSameResults(t, "projected vs full-width", full, got)

		// Neither side of the comparison is vacuous: the default engine
		// stored exactly the kind sets, the reference all fifteen.
		for kind, cols := range map[string]flowrec.Columns{
			"flows": FlowKey{Kind: KindFlows}.Columns(), "vpn-flows": FlowKey{Kind: KindVPNFlows}.Columns(), "component-flows": FlowKey{Kind: KindComponentFlows}.Columns(),
		} {
			if n := gotCols[kind][cols]; n == 0 || len(gotCols[kind]) != 1 {
				t.Errorf("seed %d: default engine's %s entries store %v, want only %s", seed, kind, gotCols[kind], cols)
			}
			if n := fullCols[kind][flowrec.AllColumns]; n == 0 || len(fullCols[kind]) != 1 {
				t.Errorf("seed %d: a wider batch must be stored as delivered; %s entries store %v", seed, kind, fullCols[kind])
			}
		}
		if gotMB <= 0 || gotMB > 0.4*fullMB {
			t.Errorf("seed %d: batch MB %.1f projected vs %.1f full-width, want about a third", seed, gotMB, fullMB)
		}
	}
}

// TestDefaultSourceIsProjectedSyntheticSource: a dataset's default flow
// source is the SyntheticSource that holds its models; it and a standalone
// NewSyntheticSource — the wire's model oracle — both store exactly each
// kind's columns; and both agree column for column with the full-width
// generation — the unit fact TestProjectedSuiteEqualsFullWidth rests on.
func TestDefaultSourceIsProjectedSyntheticSource(t *testing.T) {
	opts := Options{FlowScale: 0.1}
	d := NewDataset(opts)
	if d.src != FlowSource(d.model) {
		t.Fatalf("default source is %T, want the dataset's own model", d.src)
	}
	oracle := NewSyntheticSource(opts)
	full := fullWidthSource{oracle}
	for _, k := range []FlowKey{
		{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(testHour)},
		{Kind: KindFlows, VP: synth.IXPSE, Hour: DayOf(testHour)},
		{Kind: KindVPNFlows, VP: synth.IXPCE, Hour: DayOf(testHour)},
		{Kind: KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: DayOf(testHour)},
	} {
		got, err := fetch(d.src, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fetch(full, k)
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := oracle.Batch(k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Columns() != k.Columns() || standalone.Columns() != k.Columns() {
			t.Errorf("%v: default source stores %s, NewSyntheticSource %s, want %s", k, got.Columns(), standalone.Columns(), k.Columns())
		}
		if got.Len() == 0 || !want.Project(k.Columns()).Equal(got) || !standalone.Equal(got) {
			t.Errorf("%v: the projected batch (%d rows) is not the full-width one's columns (%d rows)", k, got.Len(), want.Len())
		}
		if drawn, err := d.draw(k); err != nil || !drawn.Equal(got) {
			t.Errorf("%v: the dataset draws something else than its source delivers (%v)", k, err)
		}
	}
	// A key of every kind names a UTC day; one at 14:00 names no batch.
	for _, hourly := range []FlowKey{
		{Kind: KindFlows, VP: synth.ISPCE, Hour: HourOf(testHour)},
		{Kind: KindVPNFlows, VP: synth.IXPCE, Hour: HourOf(testHour)},
		{Kind: KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: HourOf(testHour)},
	} {
		if b, err := oracle.Batch(hourly); err == nil || !strings.Contains(err.Error(), "not at 00:00 UTC") {
			t.Errorf("SyntheticSource served %v: %v, %v", hourly, b, err)
		}
	}
}
