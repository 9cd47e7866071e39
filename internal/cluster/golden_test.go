package cluster

import (
	"context"
	"fmt"
	"testing"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/goldentest"
	"lockdown/internal/synth"
)

// goldenOpts matches the replay golden test: the scale only shrinks the
// batches, not the experiment set or key space, so the sharded wire
// path is exercised exactly as at full scale.
var goldenOpts = core.Options{FlowScale: 0.05}

// runSharded executes the given experiments (nil = full suite) over a
// fresh in-process cluster of n shards.
func runSharded(t *testing.T, format collector.Format, ids []string, n int) ([]*core.Result, Stats) {
	results, stats, _, _ := runShardedOpts(t, format, ids, n, goldenOpts)
	return results, stats
}

// runShardedOpts is runSharded under explicit engine options (the
// tiered-cache golden variant tightens the cache budget so the sharded
// bridge's batches spill). The run, read-back and close harness lives in
// goldentest.RunSuite, shared with the single-pump golden test; it returns
// the cache stats after the run and after each read-back. It also
// checks what must hold of the accounting whatever the results are: the
// per-stream bucket counts sum to the bridge total, every shard owning one
// of the five vantage points whose flows the suite reads (the ISP, the
// three IXPs, the EDU network) served buckets — the partition distributes
// — and the pumps saw a request per bucket and refused none. Retries are
// not asserted to be zero: a loaded box may drop a loopback datagram, and
// a retried bucket is still a verified one.
func runShardedOpts(t *testing.T, format collector.Format, ids []string, n int, opts core.Options) ([]*core.Result, Stats, core.CacheStats, [2]core.CacheStats) {
	t.Helper()
	c := newTestCluster(t, Spec{Shards: n, Format: format, Options: opts})
	results, cache, back := goldentest.RunSuite(t, c.Source(), ids, 4, opts)
	stats := c.Stats()
	var keys int64
	for _, s := range stats.Streams {
		keys += s.Keys
	}
	if keys == 0 || keys != stats.Bridge.Keys {
		t.Errorf("%v: the streams served %d buckets, the bridge total says %d", format, keys, stats.Bridge.Keys)
	}
	for vp, shard := range c.Partition() {
		if stats.Streams[uint32(shard)].Keys == 0 && vp != synth.Mobile && vp != synth.IPX {
			t.Errorf("%v: shard %d (owning %s) served no bucket", format, shard, vp)
		}
	}
	// (A pump counts its exported rows after the bucket's last packet is
	// out, by when the bridge may have completed it: only requests are
	// settled here.)
	var requests, nacks int64
	for _, sh := range stats.Shards {
		requests += sh.Pump.Requests
		nacks += sh.Pump.Nacks
	}
	if requests < keys || nacks != 0 {
		t.Errorf("%v: pumps took %d requests with %d NACKs, want >= %d and none", format, requests, nacks, keys)
	}
	return results, stats, cache, back
}

// TestGoldenClusterEquivalence is the golden test of the sharded
// cluster: the full 21-experiment suite over IPFIX shards, and the
// flow-consuming experiments over NetFlow v9 shards, must produce
// bit-identical metrics to the in-memory engine at the same options —
// at three shards, and at seven, one per vantage point, which is the
// topology `lockdown replay` ships. It runs under -race in CI. Together
// with the single-pump golden test in internal/replay this pins the
// acceptance contract: `lockdown replay` and `lockdown cluster -shards N`
// output equals `lockdown all`.
func TestGoldenClusterEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster golden test is not short")
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

	for _, n := range []int{3, len(synth.AllVantagePoints())} {
		label := fmt.Sprintf("%d-shards", n)
		t.Run("ipfix-full-suite-"+label, func(t *testing.T) {
			got, stats := runSharded(t, collector.FormatIPFIX, nil, n)
			goldentest.CompareResults(t, "ipfix "+label, wantAll, got)
			t.Logf("ipfix %s full suite: %+v", label, stats.Bridge)
		})
		t.Run("netflow-v9-flow-experiments-"+label, func(t *testing.T) {
			got, stats := runSharded(t, collector.FormatNetflowV9, goldentest.FlowExperiments, n)
			goldentest.CompareResults(t, "netflow-v9 "+label, flowWant, got)
			t.Logf("netflow-v9 %s flow experiments: %+v", label, stats.Bridge)
		})
	}

	// Tiered-cache variant: under a 1-byte cache budget and a cache dir the
	// metrics must still equal the unbudgeted in-memory engine's, and the
	// suite holds, evicts and spills no batch the sharded bridge serves;
	// read back after the run, every batch is fetched over the wire again,
	// equals a fresh generation and is spilled once, and read back a second
	// time, every span is mapped back, equals a fresh generation and is not
	// rewritten.
	t.Run("ipfix-flow-experiments-3-shards-tiny-budget", func(t *testing.T) {
		opts := goldenOpts
		opts.CacheBudget, opts.CacheDir = 1, t.TempDir()
		got, stats, cache, back := runShardedOpts(t, collector.FormatIPFIX, goldentest.FlowExperiments, 3, opts)
		goldentest.CompareResults(t, "ipfix 3-shard tiny-budget", flowWant, got)
		goldentest.HoldsNoBatch(t, "ipfix 3-shard tiny-budget", opts, cache, back)
		t.Logf("ipfix 3-shard tiny-budget: %+v cache %+v", stats.Bridge, back)
	})
}
