package replay

import (
	"context"
	"testing"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/goldentest"
	"lockdown/internal/synth"
)

// goldenOpts keeps the golden runs cheap: the flow scale only shrinks
// the batches, it does not change the experiment set, the hour grids or
// the key space, so the wire path is exercised exactly as at full scale.
var goldenOpts = core.Options{FlowScale: 0.05}

// runWire executes the given experiments (nil = the full suite) over a
// fresh pump/bridge pair and returns the results plus the bridge stats.
func runWire(t *testing.T, format collector.Format, ids []string) ([]*core.Result, Stats) {
	results, stats, _ := runWireOpts(t, format, ids, goldenOpts)
	return results, stats
}

// runWireOpts is runWire under explicit engine options (the tiered-cache
// golden variants tighten the cache budget). The run-and-close harness
// lives in goldentest.RunSuite, shared with the cluster golden test.
func runWireOpts(t *testing.T, format collector.Format, ids []string, opts core.Options) ([]*core.Result, Stats, core.CacheStats) {
	t.Helper()
	br, _ := newHarness(t, format, opts)
	results, cache := goldentest.RunSuite(t, br, ids, 4, opts)
	return results, br.Stats(), cache
}

// runLoopback is runWire over the topology `lockdown replay` ships: one
// stream per vantage point, built by NewLoopback. It checks what must hold
// of the accounting whatever the results are — the per-stream bucket
// counts sum to the total, and the five vantage points whose flows the
// suite reads (the ISP, the three IXPs, the EDU network) each served
// buckets on their own stream. Retries are not asserted to be zero: a
// loaded box may drop a loopback datagram, and a retried bucket is still a
// verified one.
func runLoopback(t *testing.T, format collector.Format, ids []string) []*core.Result {
	t.Helper()
	lb := newLoopback(t, Config{Format: format, Options: goldenOpts})
	results, _ := goldentest.RunSuite(t, lb.Bridge, ids, 4, goldenOpts)
	snap := lb.Bridge.Snapshot()
	var keys int64
	for i, vp := range synth.AllVantagePoints() {
		s := snap.Streams[uint32(i)]
		keys += s.Keys
		if s.Keys == 0 && vp != synth.Mobile && vp != synth.IPX {
			t.Errorf("%v: stream %d (%s) served no bucket", format, i, vp)
		}
	}
	if keys == 0 || keys != snap.Total.Keys {
		t.Errorf("%v: the streams served %d buckets, the bridge total says %d", format, keys, snap.Total.Keys)
	}
	// (A pump counts its exported rows after the bucket's last packet is
	// out, by when the bridge may have completed it: only requests are
	// settled here.)
	if ps := lb.PumpStats(); ps.Requests < keys || ps.Nacks != 0 {
		t.Errorf("%v: pumps %+v, want >= %d requests and no NACK", format, ps, keys)
	}
	t.Logf("%v per-vantage-point streams: %+v", format, snap.Total)
	return results
}

// TestGoldenWireEquivalence is the golden test of the wire-replay
// bridge: the full 21-experiment suite over IPFIX, and the flow-consuming
// experiments over NetFlow v5 and v9, must produce bit-identical metrics
// to the in-memory engine at the same options — over a single pump, and
// over the per-vantage-point streams of `lockdown replay`. It runs under
// -race in CI.
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

	for _, format := range []collector.Format{collector.FormatNetflowV5, collector.FormatNetflowV9} {
		t.Run(format.String()+"-flow-experiments", func(t *testing.T) {
			got, stats := runWire(t, format, goldentest.FlowExperiments)
			goldentest.CompareResults(t, format.String(), flowWant, got)
			t.Logf("%v flow experiments: %+v", format, stats)
		})
	}

	t.Run("ipfix-full-suite-per-vp-streams", func(t *testing.T) {
		goldentest.CompareResults(t, "ipfix per-vp streams", wantAll, runLoopback(t, collector.FormatIPFIX, nil))
	})
	for _, format := range []collector.Format{collector.FormatNetflowV5, collector.FormatNetflowV9} {
		t.Run(format.String()+"-flow-experiments-per-vp-streams", func(t *testing.T) {
			got := runLoopback(t, format, goldentest.FlowExperiments)
			goldentest.CompareResults(t, format.String()+" per-vp streams", flowWant, got)
		})
	}

	// Tiered-cache variant: a 1-byte cache budget forces every bridge-fed
	// batch to spill to a flowstore segment and fault back in, and the
	// metrics must still equal the in-memory, unbudgeted engine's.
	t.Run("ipfix-flow-experiments-tiny-budget", func(t *testing.T) {
		opts := goldenOpts
		opts.CacheBudget, opts.CacheDir = 1, t.TempDir()
		got, stats, cache := runWireOpts(t, collector.FormatIPFIX, goldentest.FlowExperiments, opts)
		goldentest.CompareResults(t, "ipfix tiny-budget", flowWant, got)
		if cache.Spills == 0 || cache.Faults == 0 {
			t.Errorf("tiny budget should spill and fault bridge-fed batches: %+v", cache)
		}
		t.Logf("ipfix tiny-budget flow experiments: %+v cache %+v", stats, cache)
	})
}
