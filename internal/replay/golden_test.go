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
func runWire(t *testing.T, format collector.Format, ids []string) ([]*core.Result, Stats) {
	results, stats, _, _ := runWireOpts(t, format, ids, goldenOpts)
	return results, stats
}

// runWireOpts is runWire under explicit engine options (the tiered-cache
// golden variants tighten the cache budget). The run, read-back and close
// harness lives in goldentest.RunSuite, shared with the cluster golden
// test; it returns the cache stats after the run and after each read-back.
func runWireOpts(t *testing.T, format collector.Format, ids []string, opts core.Options) ([]*core.Result, Stats, core.CacheStats, [2]core.CacheStats) {
	t.Helper()
	br, _ := newHarness(t, format, opts)
	results, cache, back := goldentest.RunSuite(t, br, ids, 4, opts)
	return results, br.Stats(), cache, back
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

	// Tiered-cache variant: under a 1-byte cache budget and a cache dir the
	// metrics must still equal the in-memory, unbudgeted engine's, and the
	// suite holds, evicts and spills no bridge-fed batch; read back after
	// the run, every batch is fetched over the wire again, equals a fresh
	// generation and is spilled once, and read back a second time, every
	// span is mapped back, equals a fresh generation and is not rewritten.
	t.Run("ipfix-flow-experiments-tiny-budget", func(t *testing.T) {
		opts := goldenOpts
		opts.CacheBudget, opts.CacheDir = 1, t.TempDir()
		got, stats, cache, back := runWireOpts(t, collector.FormatIPFIX, goldentest.FlowExperiments, opts)
		goldentest.CompareResults(t, "ipfix tiny-budget", flowWant, got)
		goldentest.HoldsNoBatch(t, "ipfix tiny-budget", opts, cache, back)
		t.Logf("ipfix tiny-budget flow experiments: %+v cache %+v", stats, back)
	})
}
