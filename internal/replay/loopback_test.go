package replay

import (
	"context"
	"sync"
	"testing"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// newLoopback builds and starts the shipped replay topology for a test.
func newLoopback(t testing.TB, cfg Config) *Loopback {
	t.Helper()
	lb, err := NewLoopback(cfg, 0)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		lb.Close()
	})
	lb.Start(ctx)
	return lb
}

// TestLoopbackStreamPerVantagePoint fetches one hour of every vantage
// point concurrently over the `lockdown replay` topology: stream i must
// serve exactly vantage point i's bucket, bit-identical to the model, and
// the summed pump counters must account for every stream's request.
func TestLoopbackStreamPerVantagePoint(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	for _, format := range []collector.Format{collector.FormatNetflowV5, collector.FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			lb := newLoopback(t, Config{Format: format, Options: opts})
			vps := synth.AllVantagePoints()
			if len(lb.Pumps) != len(vps) || len(vps) > collector.MaxV5Stream+1 {
				t.Fatalf("%d pumps for %d vantage points", len(lb.Pumps), len(vps))
			}
			ref := core.NewSyntheticSource(opts)
			var wg sync.WaitGroup
			errs := make([]error, len(vps))
			for i, vp := range vps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = fetchAndCompare(ref, lb.Bridge, vp, testHour)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("stream %d (%s): %v", i, vps[i], err)
				}
			}

			snap := lb.Bridge.Snapshot()
			var rows int64
			for i := range vps {
				s := snap.Streams[uint32(i)]
				if s.Keys != 1 {
					t.Errorf("stream %d (%s) served %d buckets, want 1", i, vps[i], s.Keys)
				}
				if got := lb.Pumps[i].Stats().Requests; got != 1 {
					t.Errorf("pump %d (%s) handled %d requests, want 1", i, vps[i], got)
				}
				rows += s.Rows
			}
			if snap.Total.Keys != int64(len(vps)) || snap.Total.Rows != rows {
				t.Errorf("bridge total %+v, want %d buckets and %d rows", snap.Total, len(vps), rows)
			}
			if ps := lb.PumpStats(); ps.Requests != int64(len(vps)) || ps.Nacks != 0 {
				t.Errorf("summed pump stats %+v, want %d requests and no NACK", ps, len(vps))
			}
		})
	}
}

// TestLoopbackUnknownVantagePointNacks pins the route's fallback. A
// verifying bridge refuses a vantage point its own model does not have
// before asking anyone; in capture mode the key goes out, to stream 0,
// whose pump refuses it, and the fetch fails fast instead of timing out.
func TestLoopbackUnknownVantagePointNacks(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	lb := newLoopback(t, Config{Format: collector.FormatIPFIX, Options: opts, Unverified: true})
	if _, err := lb.Bridge.FlowBatch("NOWHERE", testHour); err == nil {
		t.Fatal("a fetch for an unknown vantage point succeeded")
	}
	if ps := lb.Pumps[0].Stats(); ps.Requests != 1 || ps.Nacks != 1 {
		t.Errorf("pump 0 stats %+v, want the one request, refused", ps)
	}
	if total := lb.PumpStats(); total.Requests != 1 {
		t.Errorf("%d requests over all pumps, want 1", total.Requests)
	}
}

// TestServedBatchDoubleReleasePanics: the batches the model oracle serves
// are pool-drawn and released by the pump and the bridge exactly once; a
// second Release of one must keep panicking, or two later draws would
// alias one set of columns.
func TestServedBatchDoubleReleasePanics(t *testing.T) {
	src := core.NewSyntheticSource(core.Options{FlowScale: 0.1})
	b, err := batchForKey(src, Key{Kind: KindFlows, VP: synth.ISPCE, Hour: testHour})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("empty hour")
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release of a served batch must panic")
		}
	}()
	b.Release()
}
