package faultinject

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/collector"
)

// relayHarness is a relay wired to a capturing UDP sink plus a sender
// socket dialed at the relay.
type relayHarness struct {
	relay *Relay
	send  *net.UDPConn
	recv  chan []byte
}

func newRelayHarness(t *testing.T, spec Spec) *relayHarness {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	recv := make(chan []byte, 1024)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			recv <- append([]byte(nil), buf[:n]...)
		}
	}()
	relay, err := NewRelay(spec, collector.FormatIPFIX, sink.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	ra, err := net.ResolveUDPAddr("udp", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	send, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return &relayHarness{relay: relay, send: send, recv: recv}
}

// collect drains n datagrams from the sink, failing the test on timeout.
func (h *relayHarness) collect(t *testing.T, n int, timeout time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case pkt := <-h.recv:
			out = append(out, pkt)
		case <-deadline:
			t.Fatalf("got %d of %d datagrams within %v", len(out), n, timeout)
		}
	}
	return out
}

// quiet asserts nothing arrives at the sink for the window.
func (h *relayHarness) quiet(t *testing.T, window time.Duration) {
	t.Helper()
	select {
	case pkt := <-h.recv:
		t.Fatalf("unexpected datagram (%d bytes)", len(pkt))
	case <-time.After(window):
	}
}

// ipfixPkt crafts a datagram the relay attributes to the given stream:
// an IPFIX header (observation domain at bytes 12:16) padded past the
// relay's 24-byte attribution floor. The relay never decodes payloads,
// so a header is all it takes.
func ipfixPkt(stream uint32, fill byte) []byte {
	pkt := make([]byte, 32)
	binary.BigEndian.PutUint16(pkt[0:], 10) // IPFIX version
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	binary.BigEndian.PutUint32(pkt[12:], stream)
	for i := 16; i < len(pkt); i++ {
		pkt[i] = fill
	}
	return pkt
}

// ctrlPkt crafts a pump→bridge control frame carrying an explicit
// stream identity (the relay reads only the prefix and the stream
// field).
func ctrlPkt(stream uint32) []byte {
	pkt := append([]byte(collector.ControlMagic), 2 /*version*/, 1 /*BEGIN*/)
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], stream)
	return append(pkt, u[:]...)
}

func TestRelayForwardsClean(t *testing.T) {
	h := newRelayHarness(t, Spec{Seed: 1})
	want := [][]byte{ipfixPkt(0, 0xAA), ipfixPkt(1, 0xBB), ctrlPkt(0)}
	for _, pkt := range want {
		h.send.Write(pkt)
	}
	got := h.collect(t, len(want), 2*time.Second)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d altered by fault-free relay", i)
		}
	}
	st := h.relay.Stats()
	if st.Total.Seen != 3 || st.Total.Forwarded != 3 || st.Total.Dropped+st.Total.Corrupted != 0 {
		t.Fatalf("stats: %+v", st.Total)
	}
	if st.Streams[0].Seen != 2 || st.Streams[1].Seen != 1 {
		t.Fatalf("per-stream attribution: %+v", st.Streams)
	}
}

func TestRelayDropAll(t *testing.T) {
	h := newRelayHarness(t, Spec{Drop: 1, Seed: 1})
	for i := 0; i < 5; i++ {
		h.send.Write(ipfixPkt(0, byte(i)))
	}
	h.quiet(t, 300*time.Millisecond)
	st := h.relay.Stats()
	if st.Total.Dropped != 5 || st.Total.Forwarded != 0 {
		t.Fatalf("stats: %+v", st.Total)
	}
}

func TestRelayDuplicateAll(t *testing.T) {
	h := newRelayHarness(t, Spec{Dup: 1, Seed: 1})
	pkt := ipfixPkt(0, 0xCC)
	h.send.Write(pkt)
	got := h.collect(t, 2, 2*time.Second)
	if !bytes.Equal(got[0], pkt) || !bytes.Equal(got[1], pkt) {
		t.Fatal("duplicate differs from original")
	}
	st := h.relay.Stats()
	if st.Total.Duplicated != 1 || st.Total.Forwarded != 2 {
		t.Fatalf("stats: %+v", st.Total)
	}
}

func TestRelayCorruptAll(t *testing.T) {
	h := newRelayHarness(t, Spec{Corrupt: 1, Seed: 1})
	pkt := ipfixPkt(0, 0xDD)
	h.send.Write(pkt)
	got := h.collect(t, 1, 2*time.Second)[0]
	if bytes.Equal(got, pkt) {
		t.Fatal("corrupted datagram identical to original")
	}
	diff := 0
	for i := range pkt {
		if got[i] != pkt[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	if st := h.relay.Stats(); st.Total.Corrupted != 1 {
		t.Fatalf("stats: %+v", st.Total)
	}
}

func TestRelayReorderSwapsWithSuccessor(t *testing.T) {
	h := newRelayHarness(t, Spec{Reorder: 1, Seed: 1})
	a, b := ipfixPkt(0, 0xA1), ipfixPkt(0, 0xB2)
	h.send.Write(a)
	time.Sleep(20 * time.Millisecond) // let the relay hold a before b arrives
	h.send.Write(b)
	got := h.collect(t, 2, 2*time.Second)
	// a was held (one hold slot per stream, so b passes) and released
	// after b: successor-swap order.
	if !bytes.Equal(got[0], b) || !bytes.Equal(got[1], a) {
		t.Fatalf("order not swapped: got %x then %x", got[0][16], got[1][16])
	}
	if st := h.relay.Stats(); st.Total.Reordered != 1 || st.Total.Forwarded != 2 {
		t.Fatalf("stats: %+v", st.Total)
	}
}

func TestRelayReorderFlushWithoutSuccessor(t *testing.T) {
	h := newRelayHarness(t, Spec{Reorder: 1, Seed: 1})
	pkt := ipfixPkt(0, 0xE7)
	start := time.Now()
	h.send.Write(pkt)
	got := h.collect(t, 1, 2*time.Second)[0]
	if !bytes.Equal(got, pkt) {
		t.Fatal("flushed datagram altered")
	}
	// The last datagram of a burst has no successor; only the flush
	// timer can release it.
	if waited := time.Since(start); waited < holdFlush/2 {
		t.Fatalf("released after %v, before the flush window", waited)
	}
}

func TestRelayStallWindow(t *testing.T) {
	h := newRelayHarness(t, Spec{
		Seed:   1,
		Stalls: []StallEvent{{Shard: 0, At: 0, For: 400 * time.Millisecond}},
	})
	h.relay.SetEpoch(time.Now())
	h.send.Write(ipfixPkt(0, 0x01)) // inside the window: blackholed
	h.send.Write(ipfixPkt(1, 0x02)) // other shard: unaffected
	got := h.collect(t, 1, 2*time.Second)
	if s := binary.BigEndian.Uint32(got[0][12:]); s != 1 {
		t.Fatalf("stream %d passed the stall window", s)
	}
	time.Sleep(450 * time.Millisecond) // window over
	h.send.Write(ipfixPkt(0, 0x03))
	h.collect(t, 1, 2*time.Second)
	st := h.relay.Stats()
	if st.Streams[0].Stalled != 1 || st.Streams[0].Forwarded != 1 {
		t.Fatalf("stream 0 counts: %+v", st.Streams[0])
	}
}

func TestRelayStallWithoutEpochInactive(t *testing.T) {
	// Without SetEpoch the stall schedule is unanchored and never fires.
	h := newRelayHarness(t, Spec{
		Seed:   1,
		Stalls: []StallEvent{{Shard: 0, At: 0, For: time.Hour}},
	})
	h.send.Write(ipfixPkt(0, 0x11))
	h.collect(t, 1, 2*time.Second)
}

func TestRelayPassesUnattributableDatagrams(t *testing.T) {
	// Shorter than any export header and not a control frame: the relay
	// cannot attribute it to a stream and must leave it alone even at
	// drop=1.
	h := newRelayHarness(t, Spec{Drop: 1, Seed: 1})
	runt := []byte("tiny datagram")
	h.send.Write(runt)
	got := h.collect(t, 1, 2*time.Second)[0]
	if !bytes.Equal(got, runt) {
		t.Fatal("unattributable datagram altered")
	}
}

// TestRelayDeterministicSchedule pins reproducibility end to end: two
// relays with the same seed fed the same per-stream datagram sequence
// make identical fault decisions, and a different seed diverges.
func TestRelayDeterministicSchedule(t *testing.T) {
	send := func(spec Spec) RelayStats {
		h := newRelayHarness(t, spec)
		for i := 0; i < 400; i++ {
			h.send.Write(ipfixPkt(uint32(i%3), byte(i)))
			if i%50 == 49 {
				time.Sleep(time.Millisecond) // let the relay drain; kernel drops are not part of the schedule
			}
		}
		// Drain until the relay has accounted every datagram; forwarded
		// ones land in the sink, dropped ones only in the stats.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := h.relay.Stats()
			if st.Total.Seen == 400 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("relay saw %d of 400 datagrams", st.Total.Seen)
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // let in-flight forwards settle
		return h.relay.Stats()
	}
	spec := Spec{Drop: 0.2, Dup: 0.1, Corrupt: 0.1, Seed: 7}
	a, b := send(spec), send(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	c := send(Spec{Drop: 0.2, Dup: 0.1, Corrupt: 0.1, Seed: 8})
	if reflect.DeepEqual(a.Streams, c.Streams) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRelayCorruptDeterministic(t *testing.T) {
	send := func() []byte {
		h := newRelayHarness(t, Spec{Corrupt: 1, Seed: 9})
		h.send.Write(ipfixPkt(2, 0x5A))
		return h.collect(t, 1, 2*time.Second)[0]
	}
	if !bytes.Equal(send(), send()) {
		t.Fatal("same seed corrupted the same datagram differently")
	}
}

func TestNewRelayBadDst(t *testing.T) {
	if _, err := NewRelay(Spec{Drop: 1}, collector.FormatIPFIX, "this is not an address"); err == nil {
		t.Fatal("NewRelay accepted a garbage destination")
	}
}

func TestRelayCloseIdempotent(t *testing.T) {
	h := newRelayHarness(t, Spec{Seed: 1})
	if err := h.relay.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.relay.Close(); err != nil {
		t.Fatal(err)
	}
}
