package faultinject

import (
	"fmt"
	"net"
	"sync"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
)

// Counts is the per-stream fault accounting of a Relay.
type Counts struct {
	Seen       int64 // datagrams that entered the relay
	Forwarded  int64 // datagrams written to the bridge (duplicates counted)
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Corrupted  int64
	Stalled    int64 // datagrams blackholed by a stall window
}

// RelayStats is a snapshot of a Relay's accounting.
type RelayStats struct {
	Total   Counts
	Streams map[uint32]Counts
}

// holdFlush bounds how long a reorder hold waits for a successor
// datagram of the same stream before the held datagram is forwarded
// anyway (the last datagram of a burst has no successor to swap with).
const holdFlush = 100 * time.Millisecond

// streamState is the relay's per-stream fault machinery: the PRF
// datagram counter and the reorder hold slot.
type streamState struct {
	n      uint64 // datagrams seen; PRF index of the next one
	held   []byte // datagram held for reordering (nil = none)
	counts Counts
}

// Relay is the wire injection point: a UDP proxy the cluster splices
// between its pumps and the bridge's data socket. Every datagram is
// attributed to its stream (control frames carry the stream explicitly,
// flow packets carry it in their export header) and rolled against the
// spec's PRF; at most one fault applies per datagram. Unattributable
// datagrams pass through untouched.
type Relay struct {
	spec   Spec
	format collector.Format
	ln     *net.UDPConn
	dst    *net.UDPConn

	mu      sync.Mutex
	epoch   time.Time
	streams map[uint32]*streamState
	tracer  *obs.Tracer // fault instants (nil = no tracing); see SetTracer

	wg sync.WaitGroup

	closeOnce sync.Once
}

// NewRelay opens the relay socket and starts forwarding to the bridge
// data address. SetEpoch arms the stall schedule; without it no stall
// window is ever active.
func NewRelay(spec Spec, format collector.Format, dstAddr string) (*Relay, error) {
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("faultinject: listen: %w", err)
	}
	// The relay must only lose datagrams its spec tells it to lose: a
	// pump bursting faster than the fault rolls drain would otherwise
	// add unaccounted kernel-buffer drops on top of the schedule.
	ln.SetReadBuffer(4 << 20)
	ua, err := net.ResolveUDPAddr("udp", dstAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("faultinject: resolve %q: %w", dstAddr, err)
	}
	dst, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("faultinject: dial %q: %w", dstAddr, err)
	}
	r := &Relay{
		spec:    spec,
		format:  format,
		ln:      ln,
		dst:     dst,
		streams: make(map[uint32]*streamState),
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Addr returns the relay's listen address; pumps export here instead of
// to the bridge directly.
func (r *Relay) Addr() string { return r.ln.LocalAddr().String() }

// SetEpoch anchors the stall schedule's t+0 (the cluster calls it at
// Start).
func (r *Relay) SetEpoch(t time.Time) {
	r.mu.Lock()
	r.epoch = t
	r.mu.Unlock()
}

// Stats returns a snapshot of the relay's fault accounting.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RelayStats{Streams: make(map[uint32]Counts, len(r.streams))}
	for id, st := range r.streams {
		s.Streams[id] = st.counts
		s.Total.Seen += st.counts.Seen
		s.Total.Forwarded += st.counts.Forwarded
		s.Total.Dropped += st.counts.Dropped
		s.Total.Duplicated += st.counts.Duplicated
		s.Total.Reordered += st.counts.Reordered
		s.Total.Corrupted += st.counts.Corrupted
		s.Total.Stalled += st.counts.Stalled
	}
	return s
}

// Close stops the relay and releases its sockets.
func (r *Relay) Close() error {
	var err error
	r.closeOnce.Do(func() {
		err = r.ln.Close()
		r.wg.Wait()
		r.dst.Close()
	})
	return err
}

func (r *Relay) run() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := r.ln.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		// Copy: a held datagram outlives the read buffer.
		pkt := append([]byte(nil), buf[:n]...)
		r.process(pkt)
	}
}

// streamOf attributes a datagram: control frames name their stream
// explicitly, flow packets carry it in their export header.
func (r *Relay) streamOf(pkt []byte) (uint32, bool) {
	if id, ok := replay.FrameStream(pkt); ok {
		return id, true
	}
	if len(pkt) < 24 { // shorter than any export header; leave it alone
		return 0, false
	}
	return collector.StreamID(r.format, pkt), true
}

// process rolls one datagram against the fault model and forwards,
// drops, duplicates, holds or corrupts it accordingly.
func (r *Relay) process(pkt []byte) {
	stream, ok := r.streamOf(pkt)
	if !ok {
		r.dst.Write(pkt)
		return
	}
	r.mu.Lock()
	st := r.streams[stream]
	if st == nil {
		st = &streamState{}
		r.streams[stream] = st
	}
	st.counts.Seen++
	tr := r.tracer
	if !r.epoch.IsZero() && r.spec.stalled(int(stream), time.Since(r.epoch)) {
		st.counts.Stalled++
		st.n++
		held := st.held
		st.held = nil
		r.mu.Unlock()
		if tr != nil {
			tr.Instant("fault-stall", "chaos", map[string]any{"stream": stream})
		}
		if held != nil {
			r.dst.Write(held)
		}
		return
	}
	u := uniform(r.spec.roll(stream, st.n))
	st.n++

	// One fault per datagram: the draw lands in at most one interval.
	var out [][]byte // datagrams to put on the wire now, in order
	hold := false
	fault := ""
	switch {
	case u < r.spec.Drop:
		st.counts.Dropped++
		fault = "fault-drop"
	case u < r.spec.Drop+r.spec.Dup:
		st.counts.Duplicated++
		fault = "fault-dup"
		out = append(out, pkt, pkt)
	case u < r.spec.Drop+r.spec.Dup+r.spec.Reorder:
		if st.held == nil {
			// Hold this datagram; it is released after the stream's next
			// datagram (or by the flush timer if none follows).
			st.counts.Reordered++
			fault = "fault-reorder"
			st.held = pkt
			hold = true
			time.AfterFunc(holdFlush, func() { r.flushHeld(stream, pkt) })
		} else {
			out = append(out, pkt) // one hold slot per stream
		}
	case u < r.spec.Drop+r.spec.Dup+r.spec.Reorder+r.spec.Corrupt:
		st.counts.Corrupted++
		fault = "fault-corrupt"
		out = append(out, r.corrupt(stream, st.n, pkt))
	default:
		out = append(out, pkt)
	}
	var held []byte
	if !hold && st.held != nil {
		held = st.held
		st.held = nil
	}
	st.counts.Forwarded += int64(len(out))
	if held != nil {
		st.counts.Forwarded++
	}
	r.mu.Unlock()

	if tr != nil && fault != "" {
		tr.Instant(fault, "chaos", map[string]any{"stream": stream})
	}
	for _, p := range out {
		r.dst.Write(p)
	}
	if held != nil {
		r.dst.Write(held)
	}
}

// flushHeld releases a reorder hold that never saw a successor. The
// identity check (slice pointer) makes a stale timer a no-op.
func (r *Relay) flushHeld(stream uint32, pkt []byte) {
	r.mu.Lock()
	st := r.streams[stream]
	flush := st != nil && len(st.held) > 0 && &st.held[0] == &pkt[0]
	if flush {
		st.held = nil
		st.counts.Forwarded++
	}
	r.mu.Unlock()
	if flush {
		r.dst.Write(pkt)
	}
}

// corrupt flips one byte, chosen by a PRF draw distinct from the fault
// decision so the flip position is also reproducible.
func (r *Relay) corrupt(stream uint32, n uint64, pkt []byte) []byte {
	h := r.spec.roll(stream, n+1<<62) // disjoint index space from fault draws
	out := append([]byte(nil), pkt...)
	idx := int(h % uint64(len(out)))
	out[idx] ^= byte(1 + (h>>32)%255) // never a zero flip
	return out
}
