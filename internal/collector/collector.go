// Package collector turns wire-format flow export (NetFlow v5/v9, IPFIX)
// into streams of flow records, and provides the matching exporters. It
// is the glue that lets the analysis pipeline consume either live UDP
// export (as the vantage points of "The Lockdown Effect" (IMC 2020) do)
// or in-memory record batches
// (as the synthetic generator produces).
//
// A Collector has one delivery channel: every decoded datagram arrives on
// Tagged() as one columnar flowrec.Batch together with the stream
// identity carried in the datagram header (IPFIX observation domain,
// NetFlow v9 source ID, NetFlow v5 engine ID — see StreamID), which is
// what lets one collector socket demux the interleaved export of several
// pumps; a consumer with a single exporter ignores the field. The batches
// come from the flowrec pool, so a consumer that returns them with
// flowrec.PutBatch keeps the receive loop allocation-free.
//
// Datagrams prefixed with ControlMagic are not flow export: they are
// delivered verbatim on the same channel, as a TaggedBatch whose Control
// holds a copy and whose Batch is nil. In-band protocols (the wire-replay
// harness in package replay) thereby see their control frames in
// datagram order with the data packets around them.
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
	"lockdown/internal/ipfix"
	"lockdown/internal/netflow"
	"lockdown/internal/obs"
)

// Format selects the wire format of an exporter or collector.
type Format int

// Supported wire formats.
const (
	FormatNetflowV5 Format = iota
	FormatNetflowV9
	FormatIPFIX
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatNetflowV5:
		return "netflow-v5"
	case FormatNetflowV9:
		return "netflow-v9"
	case FormatIPFIX:
		return "ipfix"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat maps the common spellings of the wire formats ("v5",
// "netflow-v5", "nf5"; "v9", "netflow-v9"; "ipfix") to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "v5", "nf5", "netflow-v5", "netflow5":
		return FormatNetflowV5, nil
	case "v9", "nf9", "netflow-v9", "netflow9":
		return FormatNetflowV9, nil
	case "ipfix", "v10", "netflow-v10":
		return FormatIPFIX, nil
	default:
		return 0, fmt.Errorf("collector: unknown format %q (want v5, v9 or ipfix)", s)
	}
}

// ControlMagic is the 4-byte prefix of replay control datagrams. Packets
// starting with it are not flow export: the collector delivers a copy in
// TaggedBatch.Control instead of decoding them, in datagram order with
// the flow packets, which gives the wire-replay protocol (package replay)
// an in-band control plane ordered with the data of the same sender
// socket. No NetFlow/IPFIX packet can collide with it: their first two
// bytes are the version field (5, 9 or 10).
const ControlMagic = "LKRW"

// maxDatagram is the read buffer size: the largest message the 16-bit
// length fields of NetFlow v9 and IPFIX can describe, which is also what
// their encoders accept (a NetFlow v5 packet is at most 1464 bytes). A
// shorter buffer would cut a legal message short and fail its decode.
const maxDatagram = 0xFFFF

// batchHint sizes pooled batches for the usual records-per-packet count.
const batchHint = 128

// StreamID extracts the exporter stream identity an export packet
// carries in its header: the IPFIX observation domain, the NetFlow v9
// source ID, or the NetFlow v5 engine ID (8 bits only — v5 exporters
// cannot be told apart beyond 256 streams). It reads fixed header
// offsets without decoding, so it is safe on arbitrary input; packets
// too short to carry the field report stream 0, and the subsequent
// decode rejects them.
func StreamID(format Format, pkt []byte) uint32 {
	w, err := format.wire()
	if err != nil {
		return 0
	}
	return w.stream(pkt)
}

// MaxV5Stream is the largest stream identity NetFlow v5 can carry: its
// engine ID field is a single byte.
const MaxV5Stream = 0xFF

type (
	decodeFunc func(dst *flowrec.Batch, pkt []byte) (int, error)
	encodeFunc func(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error)
)

// wire is what differs between the formats. A Collector resolves it once,
// at construction, to its decoder; an Exporter to its encoder. Both carry
// the format's per-connection state (template cache, sequence counter).
type wire struct {
	rows       int // rows per packet
	stream     func(pkt []byte) uint32
	newDecoder func() decodeFunc
	newEncoder func(stream uint32) encodeFunc
}

// wire is the one place that knows the formats apart.
func (f Format) wire() (wire, error) {
	switch f {
	case FormatNetflowV5:
		return wire{
			rows:   netflow.V5MaxRecords,
			stream: func(pkt []byte) uint32 { return uint32(netflow.V5EngineID(pkt)) },
			newDecoder: func() decodeFunc {
				return func(dst *flowrec.Batch, pkt []byte) (int, error) {
					h, err := netflow.DecodeV5Batch(dst, pkt)
					return h.Count, err
				}
			},
			newEncoder: func(stream uint32) encodeFunc {
				var seq uint32 // v5's flow sequence counts records
				return func(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
					dst, err := netflow.EncodeV5StreamBatch(dst, b, lo, hi, exportTime, seq, uint8(stream))
					seq += uint32(hi - lo)
					return dst, err
				}
			},
		}, nil
	case FormatNetflowV9:
		return wire{
			rows:       100,
			stream:     netflow.V9SourceID,
			newDecoder: func() decodeFunc { return netflow.NewV9Decoder().DecodeBatch },
			newEncoder: func(stream uint32) encodeFunc { return (&netflow.V9Encoder{SourceID: stream}).EncodeBatch },
		}, nil
	case FormatIPFIX:
		return wire{
			rows:       100,
			stream:     ipfix.DomainID,
			newDecoder: func() decodeFunc { return ipfix.NewDecoder().DecodeBatch },
			newEncoder: func(stream uint32) encodeFunc { return (&ipfix.Encoder{DomainID: stream}).EncodeBatch },
		}, nil
	default:
		return wire{}, fmt.Errorf("collector: unsupported format %v", f)
	}
}

// TaggedBatch is one received datagram: a decoded batch plus the
// exporter stream it came from, or a control datagram (ControlMagic)
// copied verbatim into Control, with Batch nil and Stream 0.
type TaggedBatch struct {
	Stream  uint32
	Batch   *flowrec.Batch
	Control []byte
}

// Collector listens on a UDP socket, decodes arriving export packets and
// delivers each as one TaggedBatch. It is safe to run one goroutine per
// Collector; Close releases the socket and closes the delivery channel.
type Collector struct {
	conn   *net.UDPConn
	stream func(pkt []byte) uint32
	decode decodeFunc
	tagged chan TaggedBatch
	errs   chan error

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
			"Receive and decode errors reported by the collector."),
	})
}

// NewCollector opens a UDP listener on addr ("127.0.0.1:0" for an
// ephemeral port) for the given format. Call Run to start receiving.
func NewCollector(format Format, addr string) (*Collector, error) {
	w, err := format.wire()
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
		conn:   conn,
		stream: w.stream,
		decode: w.newDecoder(),
		// 64 datagrams of slack, so a consumer hiccup backs up into the
		// channel before it backs up into the socket buffer.
		tagged: make(chan TaggedBatch, 64),
		errs:   make(chan error, 16),
		done:   make(chan struct{}),
	}, nil
}

// Addr returns the local address the collector listens on.
func (c *Collector) Addr() string { return c.conn.LocalAddr().String() }

// Tagged returns the channel every datagram is delivered on, in arrival
// order: decoded batches with their stream identity, and control
// datagrams with a nil Batch (plain flow export never produces any). The
// channel is closed when the collector stops. Return consumed batches
// with flowrec.PutBatch.
func (c *Collector) Tagged() <-chan TaggedBatch { return c.tagged }

// Errors returns the channel decode errors are reported on. Errors are
// dropped if the channel is full; the collector never blocks on them.
// The channel is closed when the collector stops.
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
		n, _, err := c.conn.ReadFromUDP(buf)
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
		var tb TaggedBatch
		if n >= len(ControlMagic) && string(buf[:len(ControlMagic)]) == ControlMagic {
			// Replay control packet: deliver a copy (the read buffer is
			// reused) without decoding. Control packets are rare, so the
			// copy does not affect the zero-alloc steady state.
			tb.Control = append([]byte(nil), buf[:n]...)
			if m := c.metrics.Load(); m != nil {
				m.ctrl.Add(1)
			}
		} else {
			// The decoders copy every value out of the datagram, so the
			// read buffer is reused without a per-packet copy. The stream
			// is read off the raw header before the decode; a packet the
			// decoder rejects never reaches the channel, so a garbage tag
			// cannot either.
			tb.Stream = c.stream(buf[:n])
			tb.Batch = flowrec.GetBatch(batchHint)
			if _, err := c.decode(tb.Batch, buf[:n]); err != nil {
				flowrec.PutBatch(tb.Batch)
				c.reportErr(err)
				continue
			}
			if tb.Batch.Len() == 0 {
				flowrec.PutBatch(tb.Batch)
				continue
			}
		}
		select {
		case c.tagged <- tb:
		case <-ctx.Done():
			flowrec.PutBatch(tb.Batch)
			return
		case <-c.done:
			flowrec.PutBatch(tb.Batch)
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
	conn   *net.UDPConn
	stream uint32
	rows   int // rows per packet
	encode encodeFunc
	buf    []byte
}

// NewExporter dials the given UDP collector address. The exporter's
// stream identity is 0; multi-exporter setups use NewStreamExporter.
func NewExporter(format Format, addr string) (*Exporter, error) {
	return NewStreamExporter(format, addr, 0)
}

// NewStreamExporter is NewExporter with an explicit stream identity,
// stamped into every packet header as the IPFIX observation domain,
// NetFlow v9 source ID, or NetFlow v5 engine ID. NetFlow v5 carries only
// 8 bits of identity, so v5 streams above MaxV5Stream are rejected. The
// collector recovers the identity per datagram (StreamID), which is what
// lets several exporters share one collector socket.
func NewStreamExporter(format Format, addr string, stream uint32) (*Exporter, error) {
	if format == FormatNetflowV5 && stream > MaxV5Stream {
		return nil, fmt.Errorf("exporter: stream %d does not fit NetFlow v5's 8-bit engine ID (max %d)", stream, MaxV5Stream)
	}
	w, err := format.wire()
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
	return &Exporter{conn: conn, stream: stream, rows: w.rows, encode: w.newEncoder(stream)}, nil
}

// Stream returns the exporter's stream identity.
func (e *Exporter) Stream() uint32 { return e.stream }

// ExportBatch encodes and sends the batch, splitting it into as many
// packets as needed. The export timestamp is now.
func (e *Exporter) ExportBatch(b *flowrec.Batch) error {
	return e.ExportBatchAt(b, time.Now().UTC())
}

// ExportBatchAt is ExportBatch with an explicit export timestamp. Replay
// of historic flows needs it for NetFlow v5, whose records express flow
// start/end as router-uptime offsets relative to the export time: stamping
// the packet near the flows (e.g. at the end of their hour) keeps the
// offsets inside the representable one-hour uptime window, so the
// second-resolution timestamps survive the round trip exactly.
func (e *Exporter) ExportBatchAt(b *flowrec.Batch, exportTime time.Time) error {
	now := exportTime.UTC()
	for lo := 0; lo < b.Len(); lo += e.rows {
		hi := min(lo+e.rows, b.Len())
		var err error
		if e.buf, err = e.encode(e.buf[:0], b, lo, hi, now); err != nil {
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

// CollectBatch gathers up to want rows from the collector into one batch,
// whatever their stream, waiting at most timeout; control datagrams are
// skipped. It is a convenience for tests and examples. Received batches
// are returned to the flowrec pool after their rows are copied; rows
// beyond want in the final datagram are dropped, so the result never
// exceeds want.
func CollectBatch(c *Collector, want int, timeout time.Duration) *flowrec.Batch {
	out := flowrec.NewBatch(want)
	deadline := time.After(timeout)
	for out.Len() < want {
		select {
		case tb, ok := <-c.Tagged():
			if !ok {
				return out
			}
			if tb.Batch == nil {
				continue
			}
			out.AppendBatch(tb.Batch)
			flowrec.PutBatch(tb.Batch)
		case <-deadline:
			return out
		}
	}
	out.Truncate(want)
	return out
}
