// Package collector turns wire-format flow export (NetFlow v9, IPFIX)
// into streams of flow records, and provides the matching exporters. It
// is the glue that lets the analysis pipeline consume either live UDP
// export (as the vantage points of "The Lockdown Effect" (IMC 2020) do)
// or in-memory record batches
// (as the synthetic generator produces).
//
// A Collector receives and does not decode. It has one delivery channel:
// every datagram arrives on Tagged() as a Datagram, its bytes in a pooled
// buffer together with the stream identity carried in its header (IPFIX
// observation domain or NetFlow v9 source ID — see StreamID), which is
// what lets one collector socket demux the interleaved export of several
// pumps; a consumer with a single exporter ignores the field. A datagram
// that does not start with the format's export header (too short,
// another version, a length field that does not match) is reported on
// Errors() and not delivered. The consumer decodes with a Decoder
// (NewDecoder) into a batch of the columns it wants, and returns the
// datagram with Release, which keeps the receive loop allocation-free.
//
// Datagrams prefixed with ControlMagic are not flow export: they are
// delivered verbatim on the same channel, with Control set and Stream 0.
// In-band protocols (the wire-replay harness in package replay) thereby
// see their control frames in datagram order with the data packets
// around them.
package collector

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/tmpl"
)

// Format selects the wire format of an exporter or collector.
type Format int

// Supported wire formats.
const (
	FormatNetflowV9 Format = iota
	FormatIPFIX
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatNetflowV9:
		return "netflow-v9"
	case FormatIPFIX:
		return "ipfix"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat maps the common spellings of the wire formats ("v9",
// "netflow-v9", "nf9"; "ipfix", "v10") to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "v9", "nf9", "netflow-v9", "netflow9":
		return FormatNetflowV9, nil
	case "ipfix", "v10", "netflow-v10":
		return FormatIPFIX, nil
	default:
		return 0, fmt.Errorf("collector: unknown format %q (want v9 or ipfix)", s)
	}
}

// ControlMagic is the 4-byte prefix of replay control datagrams. Packets
// starting with it are not flow export: the collector delivers them
// verbatim as Control datagrams, without checking a header, in datagram
// order with the flow packets, which gives the wire-replay protocol
// (package replay) an in-band control plane ordered with the data of the
// same sender socket. No NetFlow/IPFIX packet can collide with it: their first two
// bytes are the version field (9 or 10).
const ControlMagic = "LKRW"

// maxDatagram is the read buffer size: the largest message the 16-bit
// length fields of NetFlow v9 and IPFIX can describe. Our encoders write
// at most the 65 507 bytes of one UDP datagram; a shorter buffer would cut
// a legal message short and fail its length check.
const maxDatagram = 0xFFFF

// StreamID extracts the exporter stream identity an export packet
// carries in its header: the IPFIX observation domain or the NetFlow v9
// source ID, 32 bits each. It reads fixed header offsets without
// decoding, so it is safe on arbitrary input; packets too short to carry
// the field report stream 0, and the header check rejects them.
func StreamID(format Format, pkt []byte) uint32 {
	f, err := format.framing()
	if err != nil {
		return 0
	}
	return f.StreamID(pkt)
}

// Decoder decodes one format's export datagrams: it appends the records
// of pkt to dst, in the columns dst stores (a field of a column dst lacks
// is skipped, a stored column the datagram lacks decodes as zero), and
// returns how many. On error dst is left as it was. A Decoder holds the
// format's template cache, per exporter stream, so it is not safe for
// concurrent use; a consumer keeps one per reading goroutine.
type Decoder func(dst *flowrec.Batch, pkt []byte) (int, error)

// framing is the one place that knows the formats apart: a format is its
// tmpl.Framing. A Collector and an Exporter resolve it once, at
// construction; the per-connection state (template cache, sequence
// counter) is theirs.
func (f Format) framing() (*tmpl.Framing, error) {
	switch f {
	case FormatNetflowV9:
		return &tmpl.V9, nil
	case FormatIPFIX:
		return &tmpl.IPFIX, nil
	default:
		return nil, fmt.Errorf("collector: unsupported format %v", f)
	}
}

// Datagram is one received datagram: its bytes and the exporter stream
// its header names, or a control datagram (ControlMagic), with Control
// set and Stream 0. Datagrams come from a pool: Release hands one back
// once its bytes are decoded or parsed.
type Datagram struct {
	Stream  uint32
	Control bool
	Data    []byte
}

// datagramPool recycles delivered datagrams and their buffers, so the
// receive loop copies each datagram into a buffer a consumer released.
var datagramPool = sync.Pool{New: func() any { return new(Datagram) }}

// newDatagram is a pooled datagram holding a copy of pkt.
func newDatagram(stream uint32, control bool, pkt []byte) *Datagram {
	d := datagramPool.Get().(*Datagram)
	d.Stream, d.Control = stream, control
	d.Data = append(d.Data[:0], pkt...)
	return d
}

// Release returns the datagram to the pool. The caller must not use d or
// its Data afterwards.
func (d *Datagram) Release() { datagramPool.Put(d) }

// Collector listens on a UDP socket, checks the header of arriving
// export packets and delivers each as one Datagram. It is safe to run one
// goroutine per Collector; Close releases the socket and closes the
// delivery channel.
type Collector struct {
	conn    *net.UDPConn
	framing *tmpl.Framing
	tagged  chan *Datagram
	errs    chan error

	// metrics is nil until Instrument attaches a registry; the receive
	// loop pays one pointer load and nil check per datagram either way.
	metrics atomic.Pointer[colMetrics]

	closeOnce sync.Once
	done      chan struct{}
}

// colMetrics are the collector's registry instruments.
type colMetrics struct {
	datagrams *obs.Counter
	bytes     *obs.Counter
	ctrl      *obs.Counter
	errors    *obs.Counter
}

// Instrument registers the collector's counters with reg (get-or-create,
// so several collectors on one registry share the same totals) and starts
// feeding them. nil reg detaches.
func (c *Collector) Instrument(reg *obs.Registry) {
	if reg == nil {
		c.metrics.Store(nil)
		return
	}
	c.metrics.Store(&colMetrics{
		datagrams: reg.Counter("lockdown_collector_datagrams_total",
			"Export datagrams received on the collector socket."),
		bytes: reg.Counter("lockdown_collector_bytes_total",
			"Bytes received on the collector socket."),
		ctrl: reg.Counter("lockdown_collector_control_frames_total",
			"Replay control datagrams delivered verbatim."),
		errors: reg.Counter("lockdown_collector_errors_total",
			"Receive errors and non-export datagrams reported by the collector."),
	})
}

// NewCollector opens a UDP listener on addr ("127.0.0.1:0" for an
// ephemeral port) for the given format. Call Run to start receiving.
func NewCollector(format Format, addr string) (*Collector, error) {
	f, err := format.framing()
	if err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("collector: listen %q: %w", addr, err)
	}
	return &Collector{
		conn:    conn,
		framing: f,
		// 64 datagrams of slack, so a consumer hiccup backs up into the
		// channel before it backs up into the socket buffer.
		tagged: make(chan *Datagram, 64),
		errs:   make(chan error, 16),
		done:   make(chan struct{}),
	}, nil
}

// Addr returns the local address the collector listens on.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

// Tagged returns the channel every datagram is delivered on, in arrival
// order: export datagrams with their stream identity, and control
// datagrams (plain flow export never produces any). The channel is closed
// when the collector stops. Release each datagram once it is consumed.
func (c *Collector) Tagged() <-chan *Datagram { return c.tagged }

// NewDecoder returns a decoder for the collector's format, with an empty
// template cache.
func (c *Collector) NewDecoder() Decoder { return tmpl.NewDecoder(c.framing).DecodeBatch }

// Errors returns the channel receive errors and rejected headers are
// reported on. Errors are dropped if the channel is full; the collector
// never blocks on them. The channel is closed when the collector stops.
func (c *Collector) Errors() <-chan error { return c.errs }

// SetReadBuffer sets the kernel receive buffer of the collector socket.
// Replay bridges raise it so request/response bursts survive consumer
// scheduling hiccups without datagram loss.
func (c *Collector) SetReadBuffer(bytes int) error { return c.conn.SetReadBuffer(bytes) }

// Run receives packets until ctx is cancelled or Close is called. It
// always closes the delivery and error channels before returning, so
// consumers ranging over either terminate. The read
// blocks without a deadline: cancelling ctx unblocks it (see
// UnblockOnDone), and Close closes the socket, which ends the loop without
// reporting an error.
func (c *Collector) Run(ctx context.Context) {
	defer close(c.tagged)
	defer close(c.errs)
	go UnblockOnDone(ctx, c.done, c.conn)
	buf := make([]byte, maxDatagram)
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		default:
		}
		n, err := c.conn.Read(buf) // the sender's address is not needed, and Read allocates none
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // unblocked: the select above returns
			}
			c.reportErr(err)
			continue
		}
		if m := c.metrics.Load(); m != nil {
			m.datagrams.Add(1)
			m.bytes.Add(int64(n))
		}
		pkt := buf[:n]
		var d *Datagram
		if n >= len(ControlMagic) && string(pkt[:len(ControlMagic)]) == ControlMagic {
			// Replay control packet: delivered verbatim.
			d = newDatagram(0, true, pkt)
			if m := c.metrics.Load(); m != nil {
				m.ctrl.Add(1)
			}
		} else {
			// Only the header is checked here; the consumer decodes. A
			// packet whose header is rejected never reaches the channel,
			// so a garbage tag cannot either.
			if err := c.framing.CheckHeader(pkt); err != nil {
				c.reportErr(err)
				continue
			}
			d = newDatagram(c.framing.StreamID(pkt), false, pkt)
		}
		select {
		case c.tagged <- d:
		case <-ctx.Done():
			d.Release()
			return
		case <-c.done:
			d.Release()
			return
		}
	}
}

// UnblockOnDone waits until ctx is cancelled or done is closed, then puts
// conn's read deadline in the past, so a read blocked on it returns with a
// timeout and its loop can see why. The deadline is a fixed instant long
// gone: no clock is read.
func UnblockOnDone(ctx context.Context, done <-chan struct{}, conn net.Conn) {
	select {
	case <-ctx.Done():
	case <-done:
	}
	conn.SetReadDeadline(time.Unix(1, 0))
}

func (c *Collector) reportErr(err error) {
	if m := c.metrics.Load(); m != nil {
		m.errors.Add(1)
	}
	select {
	case c.errs <- err:
	default:
	}
}

// Close stops the collector and releases the socket.
func (c *Collector) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.conn.Close()
}

// Exporter sends flow records to a collector address using the chosen wire
// format, batching records into appropriately sized packets. The packet
// buffer is reused across packets, so a steady-state ExportBatch loop
// allocates nothing per record. An Exporter is not safe for concurrent
// use (it carries sequence state).
type Exporter struct {
	conn    *net.UDPConn
	framing *tmpl.Framing
	stream  uint32
	seq     uint32
	buf     []byte
}

// NewExporter dials the given UDP collector address. The exporter's
// stream identity is 0; multi-exporter setups use NewStreamExporter.
func NewExporter(format Format, addr string) (*Exporter, error) {
	return NewStreamExporter(format, addr, 0)
}

// NewStreamExporter is NewExporter with an explicit stream identity,
// stamped into every packet header as the IPFIX observation domain or
// NetFlow v9 source ID. The collector recovers the identity per datagram
// (StreamID), which is what lets several exporters share one collector
// socket.
func NewStreamExporter(format Format, addr string, stream uint32) (*Exporter, error) {
	f, err := format.framing()
	if err != nil {
		return nil, err
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("exporter: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("exporter: dial %q: %w", addr, err)
	}
	return &Exporter{conn: conn, framing: f, stream: stream}, nil
}

// ExportBatch encodes and sends the batch, splitting it into as few
// packets as the format allows: a NetFlow v9 or IPFIX message fills one
// UDP datagram (as many records of the batch's column set as 65 507
// bytes hold). The export timestamp is now.
func (e *Exporter) ExportBatch(b *flowrec.Batch) error {
	return e.ExportBatchAt(b, time.Now().UTC())
}

// ExportBatchAt is ExportBatch with an explicit export timestamp. Replay
// of historic flows stamps each packet at the end of the flows' period
// (the pump: the end of the key's day), so the header describes when the
// flows were exported, not when they are replayed; and a format whose
// records express flow times relative to the export time, as RFC 3954's
// sysUptime-relative FIRST_SWITCHED / LAST_SWITCHED do, needs the stamp
// near the flows to represent them.
func (e *Exporter) ExportBatchAt(b *flowrec.Batch, exportTime time.Time) error {
	now, rows := exportTime.UTC(), e.framing.MaxRecords(b.Columns())
	for lo := 0; lo < b.Len(); lo += rows {
		hi := min(lo+rows, b.Len())
		var err error
		if e.buf, err = e.framing.EncodeBatch(e.buf[:0], b, lo, hi, now, e.stream, &e.seq); err != nil {
			return err
		}
		if _, err := e.conn.Write(e.buf); err != nil {
			return fmt.Errorf("exporter: send: %w", err)
		}
	}
	return nil
}

// WriteRaw sends one raw datagram on the exporter socket. Because it uses
// the same socket as the flow packets, the datagram stays FIFO-ordered
// with them on loopback paths; the wire-replay protocol uses this for its
// BEGIN/END control frames around each exported bucket.
func (e *Exporter) WriteRaw(pkt []byte) error {
	if _, err := e.conn.Write(pkt); err != nil {
		return fmt.Errorf("exporter: send raw: %w", err)
	}
	return nil
}

// Close releases the exporter socket.
func (e *Exporter) Close() error { return e.conn.Close() }

// CollectBatch gathers up to want rows from the collector into one
// full-width batch, whatever their stream, waiting at most timeout;
// control datagrams and datagrams that fail to decode are skipped. It is
// a convenience for tests and examples. Rows beyond want in the final
// datagram are dropped, so the result never exceeds want.
func CollectBatch(c *Collector, want int, timeout time.Duration) *flowrec.Batch {
	out := flowrec.NewBatch(want)
	decode := c.NewDecoder()
	deadline := time.After(timeout)
	for out.Len() < want {
		select {
		case d, ok := <-c.Tagged():
			if !ok {
				return out
			}
			if !d.Control {
				decode(out, d.Data)
			}
			d.Release()
		case <-deadline:
			return out
		}
	}
	out.Truncate(want)
	return out
}
