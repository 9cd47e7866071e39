package cluster

import (
	"sync"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// TestStatsConsistentDuringChaos hammers Stats() and the
// Prometheus exposition while a chaos run drives the death → rebalance
// path, pinning two properties under the race detector: snapshotting
// never races the supervisor or a rebalance, and every snapshot is
// internally consistent — each per-component block is copied under that
// component's lock, so a reader can never observe a torn RebalanceEvent,
// a dead shard that still owns a vantage point, or relay counts
// mid-increment (Forwarded + Dropped != Seen + Duplicated).
func TestStatsConsistentDuringChaos(t *testing.T) {
	chaos, err := faultinject.ParseSpec("kill=shard1@t+100ms,drop=0.05,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts := core.Options{FlowScale: 0.05, Obs: reg}
	spec := Spec{
		Shards:         3,
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: time.Second,
		FetchBudget:    30 * time.Second,
		Chaos:          &chaos,
	}
	c := newTestCluster(t, spec)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.Stats()
				// A shard's death and its rebalance are one step: a
				// dead shard owns no vantage point in the same snapshot,
				// and the aggregate bridge stats are never less than any
				// one stream's.
				part := livePartition(spec, s)
				for _, sh := range s.Shards {
					for vp, owner := range part {
						if sh.Dead && owner == sh.Shard {
							t.Errorf("dead shard %d still owns %s: torn snapshot", sh.Shard, vp)
							return
						}
					}
				}
				for id, st := range s.Streams {
					if st.Keys > s.Bridge.Keys {
						t.Errorf("stream %d keys %d exceed aggregate %d", id, st.Keys, s.Bridge.Keys)
						return
					}
				}
				for _, ev := range s.Rebalances {
					if ev.Moved == nil || ev.Time.IsZero() {
						t.Errorf("torn rebalance event: %+v", ev)
						return
					}
				}
				// The relay holds nothing back, so its counts close
				// in every snapshot.
				if s.Chaos == nil {
					t.Error("a chaos run's snapshot has no relay stats")
					return
				}
				if c := s.Chaos.Total; c.Forwarded+c.Dropped != c.Seen+c.Duplicated {
					t.Errorf("chaos totals inconsistent: %+v", c)
					return
				}
				c.Partition()
			}
		}()
	}
	// One reader scrapes the registry concurrently, while the supervisor
	// and the relay move the counters it reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sink discardWriter
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.WritePrometheus(sink); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()

	stats := waitForDeadShard(t, c, 1, 15*time.Second)
	// Exercise a post-rebalance fetch under the readers too: IXP-CE lived
	// on shard 1.
	fetchEqual(t, c, core.NewSyntheticSource(core.Options{FlowScale: 0.05}), synth.IXPCE, testDay)
	close(stop)
	wg.Wait()

	checkOneDeath(t, spec, stats)
	if v := reg.Counter("lockdown_cluster_dead_shards_total", "").Value(); v != 1 {
		t.Errorf("lockdown_cluster_dead_shards_total = %d, want 1", v)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
