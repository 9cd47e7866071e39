package cluster

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/synth"
)

func TestSpecValidationSurvival(t *testing.T) {
	chaos := func(s string) *faultinject.Spec {
		spec, err := faultinject.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return &spec
	}
	if err := (Spec{Shards: 3, Chaos: chaos("kill=shard3@t+1s")}).Validate(); err == nil {
		t.Error("chaos kill of shard 3 in a 3-shard cluster validated")
	}
	if err := (Spec{Shards: 3, Chaos: chaos("kill=shard2@t+1s,stall=shard0@t+1s:1s")}).Validate(); err != nil {
		t.Errorf("in-range chaos spec rejected: %v", err)
	}
	if err := (Spec{AttemptTimeout: -time.Second}).Validate(); err == nil {
		t.Error("negative AttemptTimeout validated")
	}
	if err := (Spec{FetchBudget: -time.Second}).Validate(); err == nil {
		t.Error("negative FetchBudget validated")
	}
}

// waitForDeadShard polls until the shard is declared dead. Its death and
// its rebalance are one step under the partition lock, so the returned
// Stats carry the rebalance too.
func waitForDeadShard(t *testing.T, c *Cluster, shard int, deadline time.Duration) Stats {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		stats := c.Stats()
		if stats.Shards[shard].Dead {
			return stats
		}
		if time.Now().After(limit) {
			t.Fatalf("shard %d not dead within %v: %+v", shard, deadline, stats.Shards[shard])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// settledStats returns the cluster's stats once the chaos relay has gone
// quiet. A bucket completes on row count, so a fetch returns while its
// trailing END frame is still on its way through the relay; a snapshot
// taken right then counts that datagram or not depending on scheduling.
// The relay is settled when its datagram count has not moved for 100 ms —
// the END follows the last data packet within microseconds.
func settledStats(t *testing.T, c *Cluster) Stats {
	t.Helper()
	limit := time.Now().Add(10 * time.Second)
	stats := c.Stats()
	for quiet := 0; quiet < 10; {
		if stats.Chaos == nil {
			t.Fatal("no chaos stats")
		}
		if time.Now().After(limit) {
			t.Fatalf("chaos relay still moving after 10s: %+v", stats.Chaos.Total)
		}
		time.Sleep(10 * time.Millisecond)
		next := c.Stats()
		if next.Chaos.Total == stats.Chaos.Total {
			quiet++
		} else {
			quiet = 0
		}
		stats = next
	}
	return stats
}

// captureStderr points os.Stderr at a pipe and returns a function that
// restores it and returns what was written meanwhile. Not for parallel
// tests: os.Stderr is process-global.
func captureStderr(t *testing.T) func() string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	t.Cleanup(func() { os.Stderr = old }) // also when the test fails before reading
	return func() string {
		os.Stderr = old
		w.Close()
		out, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
}

// fetchEqual fetches one vantage-point hour over the cluster and
// compares it bit-for-bit against the reference model (fetchDiff, fatal).
func fetchEqual(t *testing.T, c *Cluster, ref *core.SyntheticSource, vp synth.VantagePoint, hour time.Time) {
	t.Helper()
	if err := fetchDiff(c, ref, vp, hour); err != nil {
		t.Fatalf("%s over the cluster: %v", vp, err)
	}
}

// livePartition is the vantage-point→shard map one Stats snapshot implies:
// the spec's initial partition with the snapshot's rebalances replayed
// over it, in order.
func livePartition(spec Spec, stats Stats) map[synth.VantagePoint]int {
	part := spec.partition()
	for _, ev := range stats.Rebalances {
		for vp, to := range ev.Moved {
			part[vp] = to
		}
	}
	return part
}

// checkOneDeath asserts the exact outcome of killing shard 1 of three:
// one dead shard, one rebalance, and shard 1's vantage points — IXP-CE
// and MOBILE under the round-robin partition — moved in sorted order
// round-robin over shards 0 and 2.
func checkOneDeath(t *testing.T, spec Spec, stats Stats) {
	t.Helper()
	for _, sh := range stats.Shards {
		if sh.Dead != (sh.Shard == 1) {
			t.Errorf("shard %d dead = %v, want only shard 1 dead", sh.Shard, sh.Dead)
		}
	}
	if len(stats.Rebalances) != 1 {
		t.Fatalf("%d rebalances, want exactly 1: %+v", len(stats.Rebalances), stats.Rebalances)
	}
	ev := stats.Rebalances[0]
	want := map[synth.VantagePoint]int{synth.IXPCE: 0, synth.Mobile: 2}
	if ev.From != 1 || ev.Reason != "pump stopped" || !reflect.DeepEqual(ev.Moved, want) {
		t.Errorf("rebalance %+v, want shard 1's vantage points moved to %v for \"pump stopped\"", ev, want)
	}
	for vp, owner := range livePartition(spec, stats) {
		if owner == 1 {
			t.Errorf("dead shard 1 still owns %s", vp)
		}
	}
}

// TestInProcessKillRestartRepartition drives the whole survival path on
// an in-process cluster with a scheduled chaos kill: the pump dies once,
// the shard is declared dead at once — nothing restarts it — its vantage
// points re-partition to the survivors, and a key that used to live on
// the dead shard is then served, bit-identical, by a surviving pump.
func TestInProcessKillRestartRepartition(t *testing.T) {
	chaos, err := faultinject.ParseSpec("kill=shard1@t+100ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{FlowScale: 0.05}
	stderr := captureStderr(t)
	spec := Spec{
		Shards:         3,
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: time.Second,
		FetchBudget:    30 * time.Second,
		Chaos:          &chaos,
	}
	c := newTestCluster(t, spec)
	ref := core.NewSyntheticSource(opts)

	stats := waitForDeadShard(t, c, 1, 15*time.Second)
	// The supervisor reports through shard status, rebalance events and
	// the trace — which the CLI renders — and never prints on its own.
	if out := stderr(); strings.Contains(out, "cluster:") {
		t.Errorf("supervisor printed to stderr instead of recording events:\n%s", out)
	}
	checkOneDeath(t, spec, stats)
	if !reflect.DeepEqual(c.Partition(), livePartition(spec, stats)) {
		t.Errorf("live partition %v, rebalance log implies %v", c.Partition(), livePartition(spec, stats))
	}
	if stats.Chaos == nil {
		t.Fatal("Stats.Chaos is nil with an active chaos spec")
	}

	// IXP-CE lived on shard 1 (round-robin over 3 shards); after the
	// rebalance a surviving pump must serve it bit-identically.
	fetchEqual(t, c, ref, synth.IXPCE, testHour)
	if s := c.Stats(); s.Streams[0].Keys != 1 {
		t.Errorf("surviving stream 0 did not serve the rebalanced key")
	}
}

// TestClusterChaosReproducible pins the determinism contract of the
// chaos harness end to end: two clusters with the same seed, fed the
// same sequential key workload, inject the identical fault schedule and
// land on identical fault and loss counters.
func TestClusterChaosReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos reproducibility test is not short")
	}
	run := func(seed int64) (faultinject.RelayStats, int64, int64) {
		// A drop rate high enough that the small test workload is all but
		// guaranteed to lose datagrams, and a fetch budget wide enough
		// that every key still gets through.
		chaos := faultinject.Spec{Drop: 0.12, Seed: seed}
		opts := core.Options{FlowScale: 0.05}
		c := newTestCluster(t, Spec{
			Shards:         2,
			Format:         collector.FormatIPFIX,
			Options:        opts,
			AttemptTimeout: 2 * time.Second,
			FetchBudget:    80 * time.Second,
			Chaos:          &chaos,
		})
		for _, vp := range []synth.VantagePoint{synth.ISPCE, synth.IXPCE} {
			for h := 0; h < 2; h++ {
				if _, err := c.Source().FlowBatch(vp, testHour.Add(time.Duration(h)*time.Hour)); err != nil {
					t.Fatalf("%s: %v", vp, err)
				}
			}
		}
		stats := settledStats(t, c)
		return *stats.Chaos, stats.Bridge.Retries, stats.Bridge.LostRows
	}
	relayA, retriesA, lostA := run(7)
	relayB, retriesB, lostB := run(7)
	if relayA.Total != relayB.Total {
		t.Errorf("same seed, different fault schedules: %+v vs %+v", relayA.Total, relayB.Total)
	}
	for id, ca := range relayA.Streams {
		if cb := relayB.Streams[id]; ca != cb {
			t.Errorf("stream %d schedule differs: %+v vs %+v", id, ca, cb)
		}
	}
	if retriesA != retriesB || lostA != lostB {
		t.Errorf("same seed, different loss accounting: retries %d/%d, lost %d/%d",
			retriesA, retriesB, lostA, lostB)
	}
	if relayA.Total.Dropped == 0 {
		t.Error("the schedule dropped nothing; the test pinned a trivial run")
	}
	relayC, _, _ := run(8)
	if reflect.DeepEqual(relayA.Streams, relayC.Streams) {
		t.Error("different seeds produced identical per-stream fault schedules (suspicious)")
	}
}
