package replay

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// newShardedHarness wires n pumps (streams 0..n-1) to one bridge, each
// exporting to its stream's data socket, routing keys over the streams by
// vantage-point index — the same partition shape internal/cluster uses.
func newShardedHarness(t testing.TB, format collector.Format, opts core.Options, n int) (*Bridge, []*Pump) {
	t.Helper()
	return newShardedHarnessVia(t, Config{Format: format, Options: opts}, n, nil)
}

// newShardedHarnessVia is newShardedHarness under an explicit bridge
// config, with pump i exporting to via(i, its stream's data address)
// instead of to the bridge itself when via is set — the lossy tests splice
// a relay in there.
func newShardedHarnessVia(t testing.TB, cfg Config, n int, via func(stream int, streamAddr string) string) (*Bridge, []*Pump) {
	t.Helper()
	vps := synth.AllVantagePoints()
	cfg.Route = func(k core.FlowKey) uint32 {
		for i, vp := range vps {
			if vp == k.VP {
				return uint32(i % n)
			}
		}
		return 0
	}
	br, err := NewBridge(cfg)
	if err != nil {
		t.Fatalf("NewBridge: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pumps := make([]*Pump, n)
	for i := range pumps {
		dataAddr, err := br.StreamAddr(uint32(i))
		if err != nil {
			t.Fatalf("StreamAddr(%d): %v", i, err)
		}
		if via != nil {
			dataAddr = via(i, dataAddr)
		}
		pump, err := NewPump(PumpConfig{
			Format:   cfg.Format,
			DataAddr: dataAddr,
			Stream:   uint32(i),
			Options:  cfg.Options,
		})
		if err != nil {
			t.Fatalf("NewPump(stream %d): %v", i, err)
		}
		if err := br.ConnectStream(uint32(i), pump.CtrlAddr()); err != nil {
			t.Fatalf("ConnectStream(%d): %v", i, err)
		}
		pumps[i] = pump
		go pump.Run(ctx)
	}
	t.Cleanup(func() {
		cancel()
		for _, p := range pumps {
			p.Close()
		}
		br.Close()
	})
	br.Start(ctx)
	return br, pumps
}

// fetchAndCompare fetches one hour batch over the bridge and compares
// it to the reference, goroutine-safe (no testing.T calls).
func fetchAndCompare(ref *core.SyntheticSource, br *Bridge, vp synth.VantagePoint, hour time.Time) error {
	want, err := ref.FlowBatch(vp, hour)
	if err != nil {
		return err
	}
	got, err := br.FlowBatch(vp, hour)
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("want %d rows of %s, got %d rows of %s, or other values", want.Len(), want.Columns(), got.Len(), got.Columns())
	}
	return nil
}

// TestShardedBridgeConcurrentStreams drives one bucket per stream
// concurrently through a three-pump bridge and checks the attribution:
// every batch bit-identical to the reference, every stream served its
// own keys, nothing lost or retried on a clean loopback wire.
func TestShardedBridgeConcurrentStreams(t *testing.T) {
	const shards = 3
	for _, tc := range []struct {
		format collector.Format
		scale  float64
		name   string
	}{
		{collector.FormatNetflowV9, 0.1, "netflow-v9"},
		{collector.FormatIPFIX, 0.1, "ipfix"},
		// Days of several datagrams each, in flight on three streams at
		// once.
		{collector.FormatIPFIX, 2, "ipfix-scale-2"},
	} {
		format, opts := tc.format, core.Options{FlowScale: tc.scale}
		t.Run(tc.name, func(t *testing.T) {
			br, pumps := newShardedHarness(t, format, opts, shards)
			ref := core.NewSyntheticSource(opts)

			// One vantage point per stream under the harness partition
			// (index mod shards): ISP-CE→0, IXP-CE→1, IXP-SE→2.
			vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.IXPSE}
			var wg sync.WaitGroup
			errs := make([]error, len(vps))
			for i, vp := range vps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Report mismatches through errs: t.Fatalf must not
					// run off the test goroutine.
					errs[i] = fetchAndCompare(ref, br, vp, testDay)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("stream %d (%s): %v", i, vps[i], err)
				}
			}

			per := br.Snapshot().Streams
			if len(per) != shards {
				t.Fatalf("Snapshot().Streams has %d streams, want %d", len(per), shards)
			}
			var total int64
			for id, s := range per {
				if s.Keys != 1 {
					t.Errorf("stream %d served %d keys, want 1", id, s.Keys)
				}
				if s.LostRows != 0 || s.Retries != 0 {
					t.Errorf("stream %d saw loss on a clean wire: %+v", id, s)
				}
				total += s.Rows
			}
			if agg := br.Stats(); agg.Keys != shards || agg.Rows != total {
				t.Errorf("aggregate stats %+v do not sum the streams (total rows %d)", agg, total)
			}
			for i, p := range pumps {
				if ps := p.Stats(); ps.Requests != 1 {
					t.Errorf("pump %d handled %d requests, want 1", i, ps.Requests)
				}
			}
		})
	}
}

// TestBridgeSnapshotConsistentUnderFetches takes snapshots while three
// streams serve buckets: in every one the aggregate must be exactly the sum
// of the per-stream readings it carries. Reading the two views through
// separate Stats() and per-stream calls let a stream advance in between
// and exceed its own "aggregate".
func TestBridgeSnapshotConsistentUnderFetches(t *testing.T) {
	opts := core.Options{FlowScale: 0.05}
	br, _ := newShardedHarness(t, collector.FormatIPFIX, opts, 3)
	vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.IXPSE}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := br.Snapshot()
				var keys, rows int64
				for _, s := range snap.Streams {
					keys += s.Keys
					rows += s.Rows
				}
				if snap.Total.Keys != keys || snap.Total.Rows != rows {
					t.Errorf("torn snapshot: total %d keys / %d rows, streams sum to %d / %d",
						snap.Total.Keys, snap.Total.Rows, keys, rows)
					return
				}
			}
		}()
	}

	var fetchers sync.WaitGroup
	for _, vp := range vps {
		fetchers.Add(1)
		go func() {
			defer fetchers.Done()
			for d := 0; d < 6; d++ {
				if _, err := br.FlowBatch(vp, testDay.AddDate(0, 0, d)); err != nil {
					t.Errorf("%s day %d: %v", vp, d, err)
					return
				}
			}
		}()
	}
	fetchers.Wait()
	close(stop)
	readers.Wait()

	if got := br.Stats(); got.Keys != int64(6*len(vps)) {
		t.Errorf("served %d keys, want %d", got.Keys, 6*len(vps))
	}
}

// TestStreamSocketsKeepStreamsApart: a stream is a socket. Streams 0 and
// 1 have data sockets of their own; a stray flow datagram exported to
// stream 1's is booked as stream 1's orphan rows, read by stream 1's next
// fetch ahead of its BEGIN, and a stream-0 fetch running meanwhile is
// served with no retry and no orphan.
func TestStreamSocketsKeepStreamsApart(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	br, _ := newShardedHarness(t, collector.FormatIPFIX, opts, 2)
	addr0, err := br.StreamAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := br.StreamAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	if addr0 != br.DataAddr() || addr0 == addr1 {
		t.Fatalf("StreamAddr(0) = %s, StreamAddr(1) = %s, DataAddr = %s: want stream 0's socket at DataAddr and stream 1's apart", addr0, addr1, br.DataAddr())
	}

	ref := core.NewSyntheticSource(opts)
	strayRows, err := ref.FlowBatch(synth.EDU, testDay)
	if err != nil {
		t.Fatal(err)
	}
	stray, err := collector.NewExporter(collector.FormatIPFIX, addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if err := stray.ExportBatch(strayRows); err != nil {
		t.Fatal(err)
	}

	// Under the harness partition ISP-CE routes to stream 0 and IXP-CE
	// to stream 1.
	vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE}
	var wg sync.WaitGroup
	errs := make([]error, len(vps))
	for i, vp := range vps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetchAndCompare(ref, br, vp, testDay)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d (%s): %v", i, vps[i], err)
		}
	}

	per := br.Snapshot().Streams
	if s := per[0]; s.Keys != 1 || s.Retries != 0 || s.OrphanRows != 0 || s.LostRows != 0 {
		t.Errorf("stream 0: %+v, want one bucket served with no retry, orphan or loss", s)
	}
	if s := per[1]; s.Keys != 1 || s.OrphanRows != int64(strayRows.Len()) || s.Retries != 0 {
		t.Errorf("stream 1: %+v, want one bucket and the stray's %d rows as orphans", s, strayRows.Len())
	}
}

// TestFetchUnknownStreamFails covers the routing hole: a key whose route
// names a stream nobody connected must fail immediately.
func TestFetchUnknownStreamFails(t *testing.T) {
	br, err := NewBridge(Config{
		Format:  collector.FormatIPFIX,
		Options: core.Options{FlowScale: 0.1},
		Route:   func(core.FlowKey) uint32 { return 7 },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); br.Close() }()
	br.Start(ctx)
	start := time.Now()
	if _, err := br.FlowBatch(synth.ISPCE, testDay); err == nil {
		t.Fatal("fetch for an unconnected stream succeeded")
	} else if !strings.Contains(err.Error(), "stream 7") || strings.Contains(err.Error(), "giving up") {
		t.Fatalf("unexpected error: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("unconnected stream took %v; should fail without waiting on the wire", d)
	}
}

// TestConnectStreamRefusesRegisteredID: a stream is served by one pump for
// the bridge's life, so connecting an id a second time is refused and
// leaves the first socket in place.
func TestConnectStreamRefusesRegisteredID(t *testing.T) {
	br, err := NewBridge(Config{Format: collector.FormatIPFIX, Options: core.Options{FlowScale: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	if err := br.ConnectStream(3, "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	first := br.stream(3).req
	if err := br.ConnectStream(3, "127.0.0.1:10"); err == nil || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("second ConnectStream(3) = %v, want an already-connected error", err)
	}
	if br.stream(3).req != first {
		t.Error("the refused ConnectStream replaced the stream's socket")
	}
}
