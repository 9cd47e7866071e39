package replay

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// TestBridgeFetchBudgetGovernsRetries pins the retry policy: the
// wall-clock deadline alone decides when a fetch gives up, however many
// attempts fit into it.
func TestBridgeFetchBudgetGovernsRetries(t *testing.T) {
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        core.Options{FlowScale: 0.05},
		AttemptTimeout: 50 * time.Millisecond,
		FetchBudget:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	// The pump's port is closed: every attempt fails, and only the
	// budget can end the loop.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	if err := br.ConnectPump(dead.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	br.Start(ctx)

	start := time.Now()
	_, err = br.FlowBatch(synth.ISPCE, testHour)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch from a closed port succeeded")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error does not say the budget ran out: %v", err)
	}
	if !strings.Contains(err.Error(), "timed out") && !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("error lost the root cause: %v", err)
	}
	if elapsed < 400*time.Millisecond {
		t.Fatalf("gave up after %v, before the %v budget", elapsed, 400*time.Millisecond)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("gave up after %v; the budget did not bind", elapsed)
	}
	if s := br.Stats(); s.Retries < 2 {
		t.Errorf("stats.Retries = %d; the budget allows several 50ms attempts", s.Retries)
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
		FetchBudget:    200 * time.Millisecond,
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
		FetchBudget:    1500 * time.Millisecond,
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
