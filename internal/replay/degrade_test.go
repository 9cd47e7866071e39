package replay

import (
	"context"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// TestBridgeFetchBudgetGovernsRetries pins the unified retry policy:
// with an explicit FetchBudget the wall-clock deadline alone decides
// when a fetch gives up — the attempt count does not bind, so a huge
// MaxAttempts cannot stretch the fetch past the budget.
func TestBridgeFetchBudgetGovernsRetries(t *testing.T) {
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        core.Options{FlowScale: 0.05},
		AttemptTimeout: 50 * time.Millisecond,
		MaxAttempts:    1 << 20, // must not bind
		FetchBudget:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br.Start(ctx)

	// No pump is connected: every attempt fails fast, and only the
	// budget can end the loop.
	start := time.Now()
	_, err = br.FlowBatch(synth.ISPCE, testHour)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch without a pump succeeded")
	}
	if !strings.Contains(err.Error(), "no pump connected") {
		t.Fatalf("error lost the root cause: %v", err)
	}
	if elapsed < 400*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v budget", elapsed, 400*time.Millisecond)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("gave up after %v; the budget did not bind", elapsed)
	}
}

// TestBridgeAllowPartialDegrades pins graceful degradation: when a
// key's retry budget runs out under AllowPartial, the bridge serves an
// empty batch instead of an error and accounts the key explicitly —
// per stream (DegradedStreams) and by name (DegradedKeys).
func TestBridgeAllowPartialDegrades(t *testing.T) {
	opts := core.Options{FlowScale: 0.05}
	// The relay drops everything: the pump is up but the bridge never
	// sees a byte, so every attempt times out (transient, not fatal).
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: 100 * time.Millisecond,
		MaxAttempts:    2,
		AllowPartial:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay := newLossyRelay(t, br.DataAddr(), func([]byte) bool { return true })
	pump, err := NewPump(PumpConfig{
		Format:   collector.FormatIPFIX,
		DataAddr: relay.ln.LocalAddr().String(),
		Options:  opts,
	})
	if err != nil {
		br.Close()
		t.Fatal(err)
	}
	if err := br.ConnectPump(pump.CtrlAddr()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); pump.Close(); br.Close() })
	go pump.Run(ctx)
	br.Start(ctx)

	got, err := br.FlowBatch(synth.ISPCE, testHour)
	if err != nil {
		t.Fatalf("allow-partial fetch failed instead of degrading: %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("degraded batch has %d rows, want an explicitly empty stand-in", got.Len())
	}
	s := br.Stats()
	if s.DegradedStreams != 1 {
		t.Errorf("stats.DegradedStreams = %d, want 1", s.DegradedStreams)
	}
	if s.Keys != 0 {
		t.Errorf("stats.Keys = %d, want 0 (a degraded key is not a served key)", s.Keys)
	}
	keys := br.DegradedKeys()
	if len(keys) != 1 || !strings.Contains(keys[0], string(synth.ISPCE)) {
		t.Fatalf("DegradedKeys() = %v, want the one missing component-hour", keys)
	}
	// The bridge implements core.DegradationReporter, and a dataset
	// wrapping it must forward the report for the suite stamp.
	var src core.FlowSource = br
	if _, ok := src.(core.DegradationReporter); !ok {
		t.Fatal("Bridge does not implement core.DegradationReporter")
	}
	data := core.NewDatasetWithSource(opts, br)
	defer data.Close()
	if fwd := data.DegradedKeys(); len(fwd) != 1 || fwd[0] != keys[0] {
		t.Fatalf("Dataset.DegradedKeys() = %v, want %v", fwd, keys)
	}
}

// TestBridgeAllowPartialKeepsFatalErrors pins the boundary of
// degradation: a fatal failure (a pump NACK — here from a stream
// mismatch) must still fail the fetch even under AllowPartial; only
// transient exhaustion degrades.
func TestBridgeAllowPartialKeepsFatalErrors(t *testing.T) {
	opts := core.Options{FlowScale: 0.05}
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: 500 * time.Millisecond,
		MaxAttempts:    3,
		AllowPartial:   true,
		Route:          func(core.FlowKey) uint32 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	pump, err := NewPump(PumpConfig{
		Format:   collector.FormatIPFIX,
		DataAddr: br.DataAddr(),
		Options:  opts,
		Stream:   0, // requests for stream 1 reach it and draw a NACK
	})
	if err != nil {
		br.Close()
		t.Fatal(err)
	}
	if err := br.ConnectStream(1, pump.CtrlAddr()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); pump.Close(); br.Close() })
	go pump.Run(ctx)
	br.Start(ctx)

	if _, err := br.FlowBatch(synth.ISPCE, testHour); err == nil {
		t.Fatal("fatal NACK was degraded away; allow-partial must only cover transient exhaustion")
	}
	if keys := br.DegradedKeys(); len(keys) != 0 {
		t.Fatalf("DegradedKeys() = %v after a fatal failure, want none", keys)
	}
}
