package replay

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/synth"
)

// lossyRelay is a UDP transport with injected loss: it forwards every
// datagram a pump sends to the bridge's data socket, except the ones the
// drop policy selects. Dropped flow packets are decoded (each IPFIX
// message carries its template, so they are self-contained) to record
// exactly how many rows the wire lost — which is what the bridge's loss
// counters must report.
type lossyRelay struct {
	ln  *net.UDPConn
	dst *net.UDPConn

	mu          sync.Mutex
	drop        func(pkt []byte) bool
	droppedRows int
	droppedPkts int
}

func newLossyRelay(t *testing.T, dstAddr string, drop func(pkt []byte) bool) *lossyRelay {
	t.Helper()
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The bridge's and the chaos relay's receive buffer: a pump sends a
	// bucket of up to 65 507-byte messages in one burst, which a default
	// buffer of ~200 KB does not hold for three pumps.
	ln.SetReadBuffer(readBuffer)
	ua, err := net.ResolveUDPAddr("udp", dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	r := &lossyRelay{ln: ln, dst: dst, drop: drop}
	t.Cleanup(func() { ln.Close(); dst.Close() })
	go r.run(t)
	return r
}

func (r *lossyRelay) run(t *testing.T) {
	dec := ipfix.NewDecoder()
	buf := make([]byte, 65536)
	for {
		n, _, err := r.ln.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by cleanup
		}
		pkt := buf[:n]
		r.mu.Lock()
		dropped := r.drop(pkt)
		if dropped {
			r.droppedPkts++
			if !strings.HasPrefix(string(pkt[:min(n, len(collector.ControlMagic))]), collector.ControlMagic) {
				var b flowrec.Batch
				rows, err := dec.DecodeBatch(&b, pkt)
				if err != nil {
					t.Errorf("relay could not decode the dropped flow packet: %v", err)
				}
				r.droppedRows += rows
			}
		}
		r.mu.Unlock()
		if !dropped {
			r.dst.Write(pkt)
		}
	}
}

func (r *lossyRelay) stats() (pkts, rows int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedPkts, r.droppedRows
}

// isCtrl reports whether a relay datagram is a replay control frame.
func isCtrl(pkt []byte) bool {
	return len(pkt) >= len(collector.ControlMagic) &&
		string(pkt[:len(collector.ControlMagic)]) == collector.ControlMagic
}

// newLossyHarness wires pump → relay → bridge with the given attempt
// timeout (the fetch budget is six of them) and drop policy.
func newLossyHarness(t *testing.T, opts core.Options, attempt time.Duration, drop func(pkt []byte) bool) (*Bridge, *Pump, *lossyRelay) {
	t.Helper()
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: attempt,
		FetchBudget:    6 * attempt,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay := newLossyRelay(t, br.DataAddr(), drop)
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
	return br, pump, relay
}

// mangleRelay is the lossyRelay's general sibling: every datagram runs
// through a transform that returns the datagrams to put on the wire, in
// order — so a test can suppress, duplicate, reorder or hold traffic.
// The transform must copy any datagram it retains past the call (the
// read buffer is reused).
type mangleRelay struct {
	ln  *net.UDPConn
	dst *net.UDPConn

	mu     sync.Mutex
	mangle func(pkt []byte) [][]byte
}

func newMangleRelay(t *testing.T, dstAddr string, mangle func(pkt []byte) [][]byte) *mangleRelay {
	t.Helper()
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The bridge's and the chaos relay's receive buffer: a pump sends a
	// bucket of up to 65 507-byte messages in one burst, which a default
	// buffer of ~200 KB does not hold for three pumps.
	ln.SetReadBuffer(readBuffer)
	ua, err := net.ResolveUDPAddr("udp", dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		t.Fatal(err)
	}
	r := &mangleRelay{ln: ln, dst: dst, mangle: mangle}
	t.Cleanup(func() { ln.Close(); dst.Close() })
	go r.run()
	return r
}

func (r *mangleRelay) run() {
	buf := make([]byte, 65536)
	for {
		n, _, err := r.ln.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by cleanup
		}
		r.mu.Lock()
		out := r.mangle(buf[:n])
		r.mu.Unlock()
		for _, pkt := range out {
			r.dst.Write(pkt)
		}
	}
}

// newMangleHarness wires pump → mangleRelay → bridge.
func newMangleHarness(t *testing.T, opts core.Options, mangle func(pkt []byte) [][]byte) (*Bridge, *Pump, *mangleRelay) {
	t.Helper()
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: 2 * time.Second,
		FetchBudget:    12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	relay := newMangleRelay(t, br.DataAddr(), mangle)
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
	return br, pump, relay
}

// frameType reports a control datagram's frame type byte.
func frameType(pkt []byte) byte { return pkt[len(collector.ControlMagic)+1] }

// multiMessageScale is the flow scale at which every flows/ bucket the
// loss tests fetch spans two IPFIX messages: an ISP-CE, IXP-CE or IXP-SE
// hour of testDay and the two after it holds 3 103–3 969 rows, and one
// message, filling a UDP datagram, carries 2 975 rows of the flows/
// column set. A test that loses, duplicates or counts the second data
// datagram of a bucket needs one.
const multiMessageScale = 2

// TestBridgeRetriesDroppedData drops every 2nd data packet of the first
// attempt: the bridge must detect the shortfall, account exactly the
// dropped rows as lost, re-request the bucket and deliver it
// bit-identically.
func TestBridgeRetriesDroppedData(t *testing.T) {
	opts := core.Options{FlowScale: multiMessageScale}
	dataSeen := 0
	firstAttemptDone := false
	br, pump, relay := newLossyHarness(t, opts, 2*time.Second, func(pkt []byte) bool {
		if isCtrl(pkt) {
			// The first END closes attempt 1; stop dropping after it so
			// the retry is guaranteed clean (deterministic success).
			if pkt[len(collector.ControlMagic)+1] == frameEnd {
				firstAttemptDone = true
			}
			return false
		}
		if firstAttemptDone {
			return false
		}
		dataSeen++
		return dataSeen%2 == 0 // drop every 2nd data datagram
	})

	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch over the lossy transport failed: %v", err)
	}
	batchesEqual(t, want, got)

	droppedPkts, droppedRows := relay.stats()
	if droppedPkts == 0 || droppedRows == 0 {
		t.Fatalf("relay dropped nothing (pkts=%d rows=%d); the test exercised no loss", droppedPkts, droppedRows)
	}
	s := br.Stats()
	if s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1 (one lossy attempt, one clean)", s.Retries)
	}
	if s.LostRows != int64(droppedRows) {
		t.Errorf("stats.LostRows = %d, want exactly the %d rows the relay dropped", s.LostRows, droppedRows)
	}
	if s.Keys != 1 || s.Rows != int64(want.Len()) {
		t.Errorf("stats %+v, want Keys=1 Rows=%d", s, want.Len())
	}
	if ps := pump.Stats(); ps.Requests != 2 {
		t.Errorf("pump.Stats().Requests = %d, want 2 (original + re-request)", ps.Requests)
	}
}

// TestBridgeRetriesDroppedBegin drops the first BEGIN frame: the whole
// bucket becomes unattributable (END-without-BEGIN), its announced rows
// count as lost and its data, seen before any BEGIN, as orphans, and the
// retry delivers it bit-identically.
func TestBridgeRetriesDroppedBegin(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	droppedBegin := false
	br, pump, _ := newLossyHarness(t, opts, 2*time.Second, func(pkt []byte) bool {
		if isCtrl(pkt) && pkt[len(collector.ControlMagic)+1] == frameBegin && !droppedBegin {
			droppedBegin = true
			return true
		}
		return false
	})

	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch with a dropped BEGIN failed: %v", err)
	}
	batchesEqual(t, want, got)

	n := int64(want.Len())
	s := br.Stats()
	if s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1", s.Retries)
	}
	if s.LostRows != n {
		t.Errorf("stats.LostRows = %d, want the full announced bucket (%d)", s.LostRows, n)
	}
	if s.OrphanRows != n {
		t.Errorf("stats.OrphanRows = %d, want %d (data of the unattributable attempt)", s.OrphanRows, n)
	}
	if ps := pump.Stats(); ps.Requests != 2 {
		t.Errorf("pump.Stats().Requests = %d, want 2", ps.Requests)
	}
}

// TestBridgeToleratesDroppedEnd drops the first END frame: the bucket
// must complete on row count alone — no retry, no loss, no orphans —
// and deliver bit-identically. END decides only a bucket with rows
// still missing.
func TestBridgeToleratesDroppedEnd(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	var droppedEnd atomic.Bool
	endSeen := make(chan struct{})
	br, pump, _ := newLossyHarness(t, opts, 2*time.Second, func(pkt []byte) bool {
		if isCtrl(pkt) && frameType(pkt) == frameEnd && droppedEnd.CompareAndSwap(false, true) {
			close(endSeen)
			return true
		}
		return false
	})

	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch with a dropped END failed: %v", err)
	}
	batchesEqual(t, want, got)
	// The bucket completes on row count, so the fetch can return before
	// the trailing END has even reached the relay: wait for it.
	select {
	case <-endSeen:
	case <-time.After(10 * time.Second):
		t.Fatal("relay never saw an END frame; the test exercised nothing")
	}

	s := br.Stats()
	if s.Retries != 0 {
		t.Errorf("stats.Retries = %d, want 0 (the bucket completes on row count)", s.Retries)
	}
	if s.LostRows != 0 || s.OrphanRows != 0 {
		t.Errorf("stats.LostRows = %d, OrphanRows = %d, want 0/0", s.LostRows, s.OrphanRows)
	}
	if s.Keys != 1 || s.Rows != int64(want.Len()) {
		t.Errorf("stats %+v, want Keys=1 Rows=%d", s, want.Len())
	}
	if ps := pump.Stats(); ps.Requests != 1 {
		t.Errorf("pump.Stats().Requests = %d, want 1 (no re-request)", ps.Requests)
	}
}

// TestBridgeSurvivesDroppedNack wires the bridge to request stream 1
// from a pump that owns stream 0, so every request draws a
// stream-mismatch NACK — and drops the first one. The bridge must ride
// the lost NACK out as a timed-out attempt, retry, and fail fast and
// fatally on the second NACK with the pump's diagnosis intact.
func TestBridgeSurvivesDroppedNack(t *testing.T) {
	opts := core.Options{FlowScale: 0.05}
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: time.Second,
		FetchBudget:    4 * time.Second,
		Route:          func(core.FlowKey) uint32 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var droppedNack atomic.Bool
	relay := newLossyRelay(t, br.DataAddr(), func(pkt []byte) bool {
		if isCtrl(pkt) && frameType(pkt) == frameNack && !droppedNack.Load() {
			droppedNack.Store(true)
			return true
		}
		return false
	})
	pump, err := NewPump(PumpConfig{
		Format:   collector.FormatIPFIX,
		DataAddr: relay.ln.LocalAddr().String(),
		Options:  opts,
		Stream:   0,
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

	_, err = br.FlowBatch(synth.ISPCE, testDay)
	if err == nil {
		t.Fatal("mis-wired stream fetch succeeded")
	}
	if !strings.Contains(err.Error(), "reached pump of stream") {
		t.Fatalf("error lost the pump's diagnosis: %v", err)
	}
	if !droppedNack.Load() {
		t.Fatal("relay never saw a NACK; the test exercised nothing")
	}
	s := br.Stats()
	if s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1 (lost NACK costs one timed-out attempt)", s.Retries)
	}
	if s.Keys != 0 {
		t.Errorf("stats.Keys = %d, want 0", s.Keys)
	}
	if ps := pump.Stats(); ps.Nacks != 2 {
		t.Errorf("pump.Stats().Nacks = %d, want 2 (one lost, one delivered)", ps.Nacks)
	}
}

// TestBridgeRetriesDuplicatedData duplicates one data datagram of the
// first attempt: the bucket overruns its announced row count, the
// attempt is abandoned with exactly the duplicate's rows accounted as
// orphans (conservation: overrun excess plus drained leftovers), and
// the retry delivers bit-identically.
func TestBridgeRetriesDuplicatedData(t *testing.T) {
	opts := core.Options{FlowScale: multiMessageScale}
	dec := ipfix.NewDecoder()
	var dupRows atomic.Int64
	var duplicated atomic.Bool
	br, pump, _ := newMangleHarness(t, opts, func(pkt []byte) [][]byte {
		if !isCtrl(pkt) && !duplicated.Load() {
			duplicated.Store(true)
			var b flowrec.Batch
			rows, err := dec.DecodeBatch(&b, pkt)
			if err != nil {
				t.Errorf("relay could not decode the duplicated flow packet: %v", err)
			}
			dupRows.Store(int64(rows))
			return [][]byte{pkt, pkt}
		}
		return [][]byte{pkt}
	})

	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch with a duplicated datagram failed: %v", err)
	}
	batchesEqual(t, want, got)
	if !duplicated.Load() || dupRows.Load() == 0 {
		t.Fatal("relay duplicated nothing; the test exercised nothing")
	}

	s := br.Stats()
	if s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1 (overrun abandons the first attempt)", s.Retries)
	}
	// Attempt 1 delivered announced+dupRows rows in total; whatever was
	// claimed past the announcement is accounted at the overrun, the
	// rest by attempt 2 as it reads toward its BEGIN — together exactly
	// the duplicate.
	if s.OrphanRows != dupRows.Load() {
		t.Errorf("stats.OrphanRows = %d, want exactly the duplicate's %d rows", s.OrphanRows, dupRows.Load())
	}
	if s.LostRows != 0 {
		t.Errorf("stats.LostRows = %d, want 0 (nothing was lost, only duplicated)", s.LostRows)
	}
	if s.Keys != 1 || s.Rows != int64(want.Len()) {
		t.Errorf("stats %+v, want Keys=1 Rows=%d", s, want.Len())
	}
	if ps := pump.Stats(); ps.Requests != 2 {
		t.Errorf("pump.Stats().Requests = %d, want 2", ps.Requests)
	}
}

// TestBridgeReordersBeginAfterData holds the BEGIN frame back until
// after the first data datagram: the bridge reads its stream in datagram
// order, so the early packet belongs to no accepted bucket and is
// orphaned at once, the END then finds exactly its rows missing, and the
// retry delivers the bucket bit-identically. A reorder costs one retry,
// never a wrong answer.
func TestBridgeReordersBeginAfterData(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	dec := ipfix.NewDecoder()
	var heldBegin []byte // touched only by the relay goroutine
	var heldRows atomic.Int64
	var reordered atomic.Bool
	br, pump, _ := newMangleHarness(t, opts, func(pkt []byte) [][]byte {
		if isCtrl(pkt) && frameType(pkt) == frameBegin && heldBegin == nil && !reordered.Load() {
			heldBegin = append([]byte(nil), pkt...) // the read buffer is reused
			return nil
		}
		if heldBegin != nil && !isCtrl(pkt) {
			var b flowrec.Batch
			rows, err := dec.DecodeBatch(&b, pkt)
			if err != nil {
				t.Errorf("relay could not decode the overtaking flow packet: %v", err)
			}
			heldRows.Store(int64(rows))
			reordered.Store(true)
			out := [][]byte{append([]byte(nil), pkt...), heldBegin}
			heldBegin = nil
			return out
		}
		return [][]byte{pkt}
	})

	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch with BEGIN reordered after data failed: %v", err)
	}
	batchesEqual(t, want, got)
	if !reordered.Load() || heldRows.Load() == 0 {
		t.Fatal("relay never swapped BEGIN behind data; the test exercised nothing")
	}

	s := br.Stats()
	if s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1 (the END finds the overtaking packet missing)", s.Retries)
	}
	if n := heldRows.Load(); s.OrphanRows != n || s.LostRows != n {
		t.Errorf("stats.OrphanRows = %d, LostRows = %d, want both the overtaking packet's %d rows", s.OrphanRows, s.LostRows, n)
	}
	if s.Keys != 1 || s.Rows != int64(want.Len()) {
		t.Errorf("stats %+v, want Keys=1 Rows=%d", s, want.Len())
	}
	if ps := pump.Stats(); ps.Requests != 2 {
		t.Errorf("pump.Stats().Requests = %d, want 2", ps.Requests)
	}
}

// TestBridgeRetriesLostEndAndData drops one data packet and the first
// END frame of attempt 1, or its first two. A later END copy still closes
// the short bucket, so the retry goes out at once instead of after the
// 30 s attempt timeout, and the bucket arrives bit-identical.
func TestBridgeRetriesLostEndAndData(t *testing.T) {
	for _, lostEnds := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-ends", lostEnds), func(t *testing.T) {
			opts := core.Options{FlowScale: 0.1}
			droppedData, droppedEnds := false, 0 // touched only by the relay goroutine
			br, pump, relay := newLossyHarness(t, opts, 30*time.Second, func(pkt []byte) bool {
				switch {
				case !isCtrl(pkt) && !droppedData:
					droppedData = true
					return true
				case isCtrl(pkt) && frameType(pkt) == frameEnd && droppedEnds < lostEnds:
					droppedEnds++
					return true
				}
				return false
			})

			want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			got, err := br.FlowBatch(synth.ISPCE, testDay)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("fetch with %d lost ENDs and a lost data packet failed: %v", lostEnds, err)
			}
			batchesEqual(t, want, got)
			droppedPkts, droppedRows := relay.stats()
			if droppedPkts != 1+lostEnds || droppedRows == 0 {
				t.Fatalf("relay dropped %d datagrams (%d rows), want one data packet and %d ENDs", droppedPkts, droppedRows, lostEnds)
			}
			if elapsed > 10*time.Second {
				t.Errorf("fetch took %v; the short bucket waited for the attempt timeout", elapsed)
			}
			if s := br.Stats(); s.Retries != 1 || s.LostRows != int64(droppedRows) {
				t.Errorf("stats %+v, want 1 retry and the %d dropped rows lost", s, droppedRows)
			}
			if ps := pump.Stats(); ps.Requests != 2 {
				t.Errorf("pump.Stats().Requests = %d, want 2", ps.Requests)
			}
		})
	}
}

// TestShardedBridgeRetriesUnderLoss runs three streams side by side behind
// one lossy relay, each losing something else on the first attempt of every
// bucket (odd generations; the retry of a bucket is the even one and goes
// through clean): stream 0 a data packet, stream 1 its BEGIN frame, stream
// 2 every END frame. Streams 0 and 1 must retry every bucket and stream 2
// none, every batch must arrive bit-identical, and — the point of running
// it under -race — the buckets abandoned by the failed attempts, the
// checked hours shared by both attempts of a fetch and the pumps' export
// batches all cycle through the flowrec pool while the other streams draw
// from it.
func TestShardedBridgeRetriesUnderLoss(t *testing.T) {
	opts := core.Options{FlowScale: multiMessageScale}
	const shards, days = 3, 3
	var (
		relay   *lossyRelay
		gen     [shards]uint32 // generation of the bucket each stream is sending
		dataIdx [shards]int    // data packets seen of that bucket
	)
	drop := func(pkt []byte) bool { // runs under the relay's lock
		if isCtrl(pkt) {
			f, err := parseCtrl(pkt)
			if err != nil {
				t.Errorf("relay saw an unparsable control frame: %v", err)
				return false
			}
			if f.typ == frameBegin {
				gen[f.stream], dataIdx[f.stream] = f.gen, 0
			}
			return f.stream == 1 && f.typ == frameBegin && f.gen%2 == 1 ||
				f.stream == 2 && f.typ == frameEnd
		}
		s := collector.StreamID(collector.FormatIPFIX, pkt)
		dataIdx[s]++
		return s == 0 && gen[s]%2 == 1 && dataIdx[s] == 2
	}
	br, pumps := newShardedHarnessVia(t, Config{
		Format:         collector.FormatIPFIX,
		Options:        opts,
		AttemptTimeout: 2 * time.Second,
		FetchBudget:    12 * time.Second,
	}, shards, func(bridgeAddr string) string {
		relay = newLossyRelay(t, bridgeAddr, drop)
		return relay.ln.LocalAddr().String()
	})

	// One vantage point per stream (index mod shards), a few days each.
	vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.IXPSE}
	ref := core.NewSyntheticSource(opts)
	var wg sync.WaitGroup
	errs := make([]error, len(vps))
	for i, vp := range vps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < days && errs[i] == nil; d++ {
				errs[i] = fetchAndCompare(ref, br, vp, testDay.AddDate(0, 0, d))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d (%s): %v", i, vps[i], err)
		}
	}

	per := br.Snapshot().Streams
	for id, wantRetries := range []int64{days, days, 0} {
		s := per[uint32(id)]
		if s.Keys != days || s.Retries != wantRetries {
			t.Errorf("stream %d: %d keys, %d retries, want %d and %d: %+v", id, s.Keys, s.Retries, days, wantRetries, s)
		}
		if ps := pumps[id].Stats(); ps.Requests != days+wantRetries {
			t.Errorf("pump %d served %d requests, want %d", id, ps.Requests, days+wantRetries)
		}
	}
	// Only stream 0 lost data packets; stream 1's unattributable first
	// attempts count in full, as lost and as orphans.
	if _, droppedRows := relay.stats(); per[0].LostRows != int64(droppedRows) {
		t.Errorf("stream 0 lost %d rows, the relay dropped %d", per[0].LostRows, droppedRows)
	}
	if per[1].LostRows != per[1].Rows || per[1].OrphanRows != per[1].Rows {
		t.Errorf("stream 1: %d lost and %d orphan rows, want its %d rows once each", per[1].LostRows, per[1].OrphanRows, per[1].Rows)
	}
	if per[2].LostRows != 0 || per[2].OrphanRows != 0 {
		t.Errorf("stream 2 completes on row count and loses nothing: %+v", per[2])
	}
}

// TestBridgeRetriesCorruptedData flips one byte of a stored column in
// flight, as the chaos relay's corrupt fault does: the packet still
// decodes and the bucket completes on row count, but its digest is not
// the one BEGIN announced, so the bridge re-requests the bucket and
// delivers it bit-identical. The template carries only the key's columns,
// so every data byte on the wire is one the digest covers.
func TestBridgeRetriesCorruptedData(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	flipped := false
	br, pump, _ := newMangleHarness(t, opts, func(pkt []byte) [][]byte {
		if flipped || isCtrl(pkt) {
			return [][]byte{pkt}
		}
		flipped = true
		bad := append([]byte(nil), pkt...)
		bad[len(bad)-1] ^= 1 // the low byte of the last record's DstAS
		return [][]byte{bad}
	})
	want, err := core.NewSyntheticSource(opts).FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch after a corrupted packet: %v", err)
	}
	batchesEqual(t, want, got)
	if s := br.Stats(); s.Retries != 1 || s.LostRows != 0 || s.DecodeErrors != 0 {
		t.Errorf("stats %+v, want exactly one retry and no loss or decode error", s)
	}
	if ps := pump.Stats(); ps.Requests != 2 {
		t.Errorf("pump served %d requests, want 2", ps.Requests)
	}
}
