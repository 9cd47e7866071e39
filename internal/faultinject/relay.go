package faultinject

import (
	"fmt"
	"net"
	"sync"

	"lockdown/internal/collector"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
)

// Counts is the per-stream fault accounting of a Relay. The relay holds
// nothing back, so every snapshot satisfies
// Forwarded + Dropped == Seen + Duplicated.
type Counts struct {
	Seen       int64 // datagrams that entered the relay
	Forwarded  int64 // datagrams written to the bridge (duplicates counted)
	Dropped    int64
	Duplicated int64
}

// RelayStats is a snapshot of a Relay's accounting.
type RelayStats struct {
	Total   Counts
	Streams map[uint32]Counts
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
	streams map[uint32]*Counts // per stream; Seen is the PRF index of its next datagram
	tracer  *obs.Tracer        // fault instants (nil = no tracing); see SetTracer

	wg sync.WaitGroup

	closeOnce sync.Once
}

// NewRelay opens the relay socket and starts forwarding to the bridge
// data address.
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
		streams: make(map[uint32]*Counts),
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Addr returns the relay's listen address; pumps export here instead of
// to the bridge directly.
func (r *Relay) Addr() string { return r.ln.LocalAddr().String() }

// Stats returns a snapshot of the relay's fault accounting.
func (r *Relay) Stats() RelayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RelayStats{Streams: make(map[uint32]Counts, len(r.streams))}
	for id, c := range r.streams {
		s.Streams[id] = *c
		s.Total.Seen += c.Seen
		s.Total.Forwarded += c.Forwarded
		s.Total.Dropped += c.Dropped
		s.Total.Duplicated += c.Duplicated
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
		r.process(buf[:n])
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
// drops or duplicates it accordingly.
func (r *Relay) process(pkt []byte) {
	stream, ok := r.streamOf(pkt)
	if !ok {
		r.dst.Write(pkt)
		return
	}
	r.mu.Lock()
	c := r.streams[stream]
	if c == nil {
		c = &Counts{}
		r.streams[stream] = c
	}
	u := uniform(r.spec.roll(stream, uint64(c.Seen)))
	c.Seen++
	// One fault per datagram: the draw lands in at most one interval.
	copies, fault := 1, ""
	switch {
	case u < r.spec.Drop:
		copies, fault = 0, "fault-drop"
		c.Dropped++
	case u < r.spec.Drop+r.spec.Dup:
		copies, fault = 2, "fault-dup"
		c.Duplicated++
	}
	c.Forwarded += int64(copies)
	tr := r.tracer
	r.mu.Unlock()

	if tr != nil && fault != "" {
		tr.Instant(fault, "chaos", map[string]any{"stream": stream})
	}
	for range copies {
		r.dst.Write(pkt)
	}
}
