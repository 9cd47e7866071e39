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
