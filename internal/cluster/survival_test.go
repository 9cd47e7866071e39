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
	if err := (Spec{MaxRestarts: -1}).Validate(); err == nil {
		t.Error("negative MaxRestarts validated")
	}
}

// TestRestartBackoffJitter pins the supervisor backoff: capped
// exponential with ±20% jitter — never outside the band, and actually
// jittered (so a fleet felled by one event does not re-dial in
// lockstep).
func TestRestartBackoffJitter(t *testing.T) {
	for _, tc := range []struct {
		restarts int
		base     time.Duration
	}{
		{1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond},
		{5, 2 * time.Second},  // hits the cap
		{50, 2 * time.Second}, // shift capped before the min: no overflow
	} {
		seen := make(map[time.Duration]bool)
		for i := 0; i < 200; i++ {
			d := restartBackoff(tc.restarts)
			if d < tc.base-tc.base/5 || d >= tc.base+tc.base/5 {
				t.Fatalf("restartBackoff(%d) = %v, outside %v ±20%%", tc.restarts, d, tc.base)
			}
			seen[d] = true
		}
		if len(seen) < 2 {
			t.Errorf("restartBackoff(%d) returned a constant; no jitter", tc.restarts)
		}
	}
}

// waitForDeadShard polls until the shard is declared dead and a
// rebalance is recorded.
func waitForDeadShard(t *testing.T, c *Cluster, shard int, deadline time.Duration) Stats {
	t.Helper()
	limit := time.Now().Add(deadline)
	for {
		stats := c.Stats()
		if stats.Shards[shard].Dead && len(stats.Rebalances) > 0 {
			return stats
		}
		if time.Now().After(limit) {
			t.Fatalf("shard %d not dead+rebalanced within %v: %+v rebalances=%d",
				shard, deadline, stats.Shards[shard], len(stats.Rebalances))
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

// TestInProcessKillRestartRepartition drives the whole survival path on
// an in-process cluster with a scheduled chaos kill: the pump dies, the
// supervisor restarts it, the chaos harness kills every new incarnation
// (permanent-kill semantics), the restart budget burns out, the shard is
// declared dead, its vantage points re-partition to the survivors — and
// a key that used to live on the dead shard is then served, bit-identical,
// by a surviving pump.
func TestInProcessKillRestartRepartition(t *testing.T) {
	chaos, err := faultinject.ParseSpec("kill=shard1@t+100ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{FlowScale: 0.05}
	stderr := captureStderr(t)
	c := newTestCluster(t, Spec{
		Shards:         3,
		Format:         collector.FormatIPFIX,
		Options:        opts,
		MaxRestarts:    1,
		AttemptTimeout: time.Second,
		FetchBudget:    30 * time.Second,
		Chaos:          &chaos,
	})
	ref := core.NewSyntheticSource(opts)

	stats := waitForDeadShard(t, c, 1, 15*time.Second)
	// The supervisor reports through shard history, rebalance events and
	// the trace — which the CLI renders — and never prints on its own.
	if out := stderr(); strings.Contains(out, "cluster:") {
		t.Errorf("supervisor printed to stderr instead of recording events:\n%s", out)
	}
	sh := stats.Shards[1]
	if sh.Restarts <= 1 {
		t.Errorf("shard 1 restarts = %d; the re-armed kill should have burned the budget past 1", sh.Restarts)
	}
	kinds := make(map[string]int)
	for _, ev := range sh.History {
		kinds[ev.Kind]++
	}
	if kinds["crash"] == 0 || kinds["restart"] == 0 || kinds["gave-up"] != 1 {
		t.Errorf("shard 1 history %v, want crashes, restarts and exactly one gave-up", kinds)
	}
	ev := stats.Rebalances[0]
	if ev.From != 1 || len(ev.Moved) == 0 {
		t.Fatalf("rebalance event %+v, want shard 1's vantage points moved", ev)
	}
	part := c.Partition()
	for vp, to := range ev.Moved {
		if to == 1 || part[vp] != to {
			t.Errorf("vantage point %s moved to %d, live partition says %d", vp, to, part[vp])
		}
	}
	if stats.Chaos == nil {
		t.Fatal("Stats.Chaos is nil with an active chaos spec")
	}

	// IXP-CE lived on shard 1 (round-robin over 3 shards); after the
	// rebalance a surviving pump must serve it bit-identically.
	if part[synth.IXPCE] == 1 {
		t.Fatalf("IXP-CE still routed to the dead shard: %v", part)
	}
	fetchEqual(t, c, ref, synth.IXPCE, testHour)
	if s := c.Stats(); s.Streams[uint32(part[synth.IXPCE])].Keys != 1 {
		t.Errorf("surviving stream %d did not serve the rebalanced key", part[synth.IXPCE])
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
