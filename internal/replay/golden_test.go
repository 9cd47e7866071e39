package replay

import (
	"context"
	"testing"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/goldentest"
)

// goldenOpts keeps the golden runs cheap: the flow scale only shrinks
// the batches, it does not change the experiment set, the hour grids or
// the key space, so the wire path is exercised exactly as at full scale.
var goldenOpts = core.Options{FlowScale: 0.05}

// runWire executes the given experiments (nil = the full suite) over a
// fresh pump/bridge pair and returns the results plus the bridge stats.
// The two-run harness lives in goldentest.RunSuite, shared with the
// cluster golden test; every run draws each key once over the wire
// (goldentest.HoldsNoBatch).
func runWire(t *testing.T, format collector.Format, ids []string) ([]*core.Result, Stats) {
	t.Helper()
	br, _ := newHarness(t, format, goldenOpts)
	results, draws := goldentest.RunSuite(t, br, ids, 4, goldenOpts)
	goldentest.HoldsNoBatch(t, format.String(), draws)
	return results, br.Stats()
}

// TestGoldenWireEquivalence is the golden test of the wire-replay
// bridge: the full 21-experiment suite over IPFIX, and the flow-consuming
// experiments over NetFlow v9, must produce bit-identical metrics
// to the in-memory engine at the same options, over a single pump. (The
// multi-pump topologies the commands ship — `lockdown replay`'s stream per
// vantage point included — have theirs in internal/cluster.) It runs
// under -race in CI.
func TestGoldenWireEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("wire golden test is not short")
	}
	wantAll, err := core.NewEngine(goldenOpts).RunAll(context.Background(), 4)
	if err != nil {
		t.Fatalf("in-memory suite failed: %v", err)
	}
	byID := make(map[string]*core.Result, len(wantAll))
	for _, r := range wantAll {
		byID[r.ID] = r
	}

	flowWant := make([]*core.Result, len(goldentest.FlowExperiments))
	for i, id := range goldentest.FlowExperiments {
		flowWant[i] = byID[id]
	}

	t.Run("ipfix-full-suite", func(t *testing.T) {
		got, stats := runWire(t, collector.FormatIPFIX, nil)
		goldentest.CompareResults(t, "ipfix", wantAll, got)
		if stats.Keys == 0 || stats.Rows == 0 {
			t.Errorf("bridge served nothing: %+v", stats)
		}
		t.Logf("ipfix full suite: %+v", stats)
	})

	t.Run("netflow-v9-flow-experiments", func(t *testing.T) {
		got, stats := runWire(t, collector.FormatNetflowV9, goldentest.FlowExperiments)
		goldentest.CompareResults(t, "netflow-v9", flowWant, got)
		t.Logf("netflow-v9 flow experiments: %+v", stats)
	})
}
