package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/replay"
	"lockdown/internal/synth"
)

var testDay = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)

func TestSpecValidation(t *testing.T) {
	for _, format := range []collector.Format{collector.FormatNetflowV9, collector.FormatIPFIX} {
		if err := (Spec{Shards: 300, Format: format}).Validate(); err != nil {
			t.Errorf("%v spec with 300 shards rejected: %v", format, err)
		}
	}
}

func TestSpecPartitionAndRoute(t *testing.T) {
	c, err := New(Spec{Shards: 3, Format: collector.FormatIPFIX})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	part := c.Partition()
	vps := synth.AllVantagePoints()
	for i, vp := range vps {
		if want := i % 3; part[vp] != want {
			t.Errorf("partition[%s] = %d, want %d", vp, part[vp], want)
		}
	}
	// The live route the bridge asks before every attempt.
	for vp, shard := range part {
		for _, kind := range []core.FlowKind{core.KindFlows, core.KindVPNFlows, core.KindComponentFlows} {
			k := core.FlowKey{Kind: kind, VP: vp, Name: "x", Hour: core.DayOf(testDay)}
			if kind == core.KindComponentFlows {
				k.Hour = core.DayOf(testDay)
			}
			if got := c.routeKey(k); got != uint32(shard) {
				t.Errorf("route(%s %s) = %d, want %d: all kinds of one vantage point must share a shard", kind, vp, got, shard)
			}
		}
	}
	// A foreign vantage point still routes deterministically in range.
	k := core.FlowKey{Kind: core.KindFlows, VP: "NOT-IN-THE-PAPER", Hour: core.DayOf(testDay)}
	if a, b := c.routeKey(k), c.routeKey(k); a != b || a >= 3 {
		t.Errorf("foreign vantage point routed unstably or out of range: %d, %d", a, b)
	}
}

// newTestCluster starts an in-process cluster and registers cleanup.
func newTestCluster(t testing.TB, spec Spec) *Cluster {
	t.Helper()
	c, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestInProcessClusterServesShardedKeys runs a three-shard in-process
// cluster and checks that keys of different vantage points are served
// by their own pumps, bit-identical to the reference model.
func TestInProcessClusterServesShardedKeys(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	c := newTestCluster(t, Spec{Shards: 3, Format: collector.FormatIPFIX, Options: opts})
	ref := core.NewSyntheticSource(opts)

	// ISP-CE, IXP-CE, IXP-SE land on shards 0, 1, 2 under the default
	// round-robin partition.
	for i, vp := range []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.IXPSE} {
		want, err := ref.FlowBatch(vp, testDay)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Source().FlowBatch(vp, testDay)
		if err != nil {
			t.Fatalf("%s over the cluster: %v", vp, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %d rows of %s over the cluster, want %d rows of %s", vp, got.Len(), got.Columns(), want.Len(), want.Columns())
		}
		stats := c.Stats()
		if s := stats.Streams[uint32(i)]; s.Keys != 1 {
			t.Errorf("stream %d served %d keys after fetching %s, want 1", i, s.Keys, vp)
		}
		if st := stats.Shards[i]; st.Dead || st.Pump.Requests != 1 {
			t.Errorf("shard %d status %+v, want live with 1 request", i, st)
		}
	}
	if s := c.Stats(); s.Bridge.Keys != 3 || s.Bridge.LostRows != 0 {
		t.Errorf("bridge stats %+v, want 3 clean keys", s.Bridge)
	}
}

// fetchDiff fetches one vantage-point hour over the cluster and reports how
// it differs from the reference model (nil: bit-identical). Unlike
// fetchEqual it may be called off the test goroutine.
func fetchDiff(c *Cluster, ref *core.SyntheticSource, vp synth.VantagePoint, hour time.Time) error {
	want, err := ref.FlowBatch(vp, hour)
	if err != nil {
		return err
	}
	got, err := c.Source().FlowBatch(vp, hour)
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("%d rows of %s over the cluster, want %d rows of %s, or other values", got.Len(), got.Columns(), want.Len(), want.Columns())
	}
	return nil
}

// TestSevenShardsStreamPerVantagePoint fetches one hour of every vantage
// point concurrently over the `lockdown replay` topology — seven shards:
// shard i must own and serve exactly
// vantage point i's bucket, bit-identical to the model, and the pumps'
// counters must account for every stream's request.
func TestSevenShardsStreamPerVantagePoint(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	vps := synth.AllVantagePoints()
	for _, format := range []collector.Format{collector.FormatNetflowV9, collector.FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			c := newTestCluster(t, Spec{Shards: len(vps), Format: format, Options: opts})
			part := c.Partition()
			for i, vp := range vps {
				if got := part[vp]; got != i {
					t.Fatalf("%s lives on shard %d, want %d", vp, got, i)
				}
			}
			ref := core.NewSyntheticSource(opts)
			var wg sync.WaitGroup
			errs := make([]error, len(vps))
			for i, vp := range vps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = fetchDiff(c, ref, vp, testDay)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("shard %d (%s): %v", i, vps[i], err)
				}
			}

			stats := c.Stats()
			var rows int64
			for i, vp := range vps {
				s := stats.Streams[uint32(i)]
				if s.Keys != 1 {
					t.Errorf("stream %d (%s) served %d buckets, want 1", i, vp, s.Keys)
				}
				if sh := stats.Shards[i]; sh.Pump.Requests != 1 || sh.Pump.Nacks != 0 {
					t.Errorf("pump %d (%s) stats %+v, want the one request, served", i, vp, sh.Pump)
				}
				rows += s.Rows
			}
			if stats.Bridge.Keys != int64(len(vps)) || stats.Bridge.Rows != rows {
				t.Errorf("bridge total %+v, want %d buckets and %d rows", stats.Bridge, len(vps), rows)
			}
		})
	}
}

// TestSevenShardsUnknownVantagePointNacks: the bridge refuses a vantage
// point its own model does not have when it draws the key's check, before
// routing — the fetch fails fast and no pump is asked. (A pump refusing
// one is replay.TestBridgeNackFromPump.)
func TestSevenShardsUnknownVantagePointNacks(t *testing.T) {
	c := newTestCluster(t, Spec{Shards: 7, Format: collector.FormatIPFIX, Options: core.Options{FlowScale: 0.1}})
	if _, err := c.Source().FlowBatch("NOWHERE", testDay); err == nil {
		t.Fatal("a fetch for an unknown vantage point succeeded")
	}
	for _, sh := range c.Stats().Shards {
		if sh.Pump != (replay.PumpStats{}) {
			t.Errorf("pump %d stats %+v: no pump should have seen a request", sh.Shard, sh.Pump)
		}
	}
}
