package core

import (
	"context"
	"strings"
	"testing"

	"lockdown/internal/flowrec"
)

// storedColumns returns the column set of every flow-batch entry of d,
// keyed by batch kind (the cache key up to its first slash).
func storedColumns(d *Dataset) map[string]map[flowrec.Columns]int {
	out := make(map[string]map[flowrec.Columns]int)
	d.mu.Lock()
	defer d.mu.Unlock()
	for key, e := range d.entries {
		fe, ok := e.val.(*flowEntry)
		if !ok {
			continue
		}
		kind, _, _ := strings.Cut(key, "/")
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
// modulo _runtime/ — to an engine fed full-width batches by
// SyntheticSource, with everything resident and with every batch spilled
// and faulted. A reader that reads a column its kind's set lacks fails
// here whether it would have panicked on the nil column or (ranging over
// it) silently read nothing. Runs under -race -cpu 1,4 in CI.
func TestProjectedSuiteEqualsFullWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite eight times")
	}
	for kind, want := range map[string]struct {
		cols  flowrec.Columns
		width int
	}{
		"flows":           {flowColumns, 22},
		"vpn-flows":       {vpnFlowColumns, 21},
		"component-flows": {componentFlowColumns, 12},
	} {
		if got := want.cols.RowBytes(); got != want.width {
			t.Errorf("%s rows store %d bytes (%s), want %d", kind, got, want.cols, want.width)
		}
	}
	for _, seed := range []int64{0, 7} {
		for _, budget := range []int64{0, 1} {
			opts := Options{FlowScale: 0.05, Seed: seed, CacheBudget: budget}
			if budget > 0 {
				opts.CacheDir = t.TempDir()
			}
			run := func(e *Engine) ([]*Result, map[string]map[flowrec.Columns]int, float64) {
				t.Helper()
				defer e.Data().Close()
				rs, err := e.RunAll(context.Background(), 4)
				if err != nil {
					t.Fatalf("RunAll(%+v): %v", opts, err)
				}
				if s := e.Data().Stats(); budget > 0 && (s.Spills == 0 || s.Faults == 0 || s.Regens != 0) {
					t.Errorf("seed %d: a 1-byte budget must spill and fault without regenerating: %+v", seed, s)
				}
				var mb float64
				for _, r := range rs {
					mb += r.Metrics[MetricBatchMB]
				}
				return rs, storedColumns(e.Data()), mb
			}
			full, fullCols, fullMB := run(NewEngineWithSource(opts, NewSyntheticSource(opts)))
			got, gotCols, gotMB := run(NewEngine(opts))
			if len(full) != 21 {
				t.Fatalf("%d results, want the 21 experiments", len(full))
			}
			label := "projected vs full-width"
			if budget > 0 {
				label += ", every batch spilled"
			}
			sameResults(t, label, full, got)

			// Neither side of the comparison is vacuous: the default engine
			// stored exactly the kind sets, the reference all fifteen.
			for kind, cols := range map[string]flowrec.Columns{
				"flows": flowColumns, "vpn-flows": vpnFlowColumns, "component-flows": componentFlowColumns,
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
}
