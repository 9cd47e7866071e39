package cluster

import (
	"context"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/goldentest"
	"lockdown/internal/synth"
)

// TestGoldenClusterChaos is the chaos golden test, the acceptance
// contract of the survival layer: a three-shard cluster behind a
// fixed-seed fault relay (5% datagram drop, 1% duplication) whose shard
// 1 is killed mid-run must still produce metrics bit-identical to the
// in-memory engine. The suite rides through datagram loss via the retry
// policy and through the shard death via re-partition — none of it may
// leak into the numbers. Runs under -race in CI.
func TestGoldenClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos golden test is not short")
	}
	chaos, err := faultinject.ParseSpec("drop=0.05,dup=0.01,kill=shard1@t+1s,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Shards:         3,
		Format:         collector.FormatIPFIX,
		Options:        goldenOpts,
		AttemptTimeout: time.Second,
		FetchBudget:    60 * time.Second,
		Chaos:          &chaos,
	}
	c := newTestCluster(t, spec)

	wantAll, err := core.NewEngine(goldenOpts).RunAll(context.Background(), 4)
	if err != nil {
		t.Fatalf("in-memory suite failed: %v", err)
	}
	byID := make(map[string]*core.Result, len(wantAll))
	for _, r := range wantAll {
		byID[r.ID] = r
	}
	want := make([]*core.Result, len(goldentest.FlowExperiments))
	for i, id := range goldentest.FlowExperiments {
		want[i] = byID[id]
	}

	got, _, _ := goldentest.RunSuite(t, c.Source(), goldentest.FlowExperiments, 4, goldenOpts)
	goldentest.CompareResults(t, "ipfix 3-shard chaos", want, got)

	// The kill can land after the last fetch returns; poll briefly for
	// the terminal state.
	stats := waitForDeadShard(t, c, 1, 15*time.Second)
	checkOneDeath(t, spec, stats)
	if stats.Chaos == nil || stats.Chaos.Total.Dropped == 0 {
		t.Fatalf("chaos relay injected no loss: %+v", stats.Chaos)
	}
	t.Logf("chaos run: bridge %+v relay %+v rebalances %d",
		stats.Bridge, stats.Chaos.Total, len(stats.Rebalances))

	// After the rebalance a vantage point that lived on the dead shard
	// must still be served bit-identically, over the wire, by a survivor.
	fetchEqual(t, c, core.NewSyntheticSource(goldenOpts), synth.IXPCE,
		time.Date(2020, time.May, 6, 0, 0, 0, 0, time.UTC))
}
