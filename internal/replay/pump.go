package replay

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
)

// PumpStats counts what a pump served. All fields are cumulative.
type PumpStats struct {
	Requests     int64 // well-formed key requests received
	BadRequests  int64 // datagrams that failed to parse
	Nacks        int64 // keys answered with a NACK frame (oracle failures)
	ExportErrors int64 // transient send failures (the bridge re-requests)
	RowsSent     int64 // flow rows exported (a dropped datagram's rows too)
	// Chaos is the fault accounting of the pump's chaos schedule (zero
	// without PumpConfig.Chaos).
	Chaos faultinject.Counts
}

// PumpConfig configures a Pump.
type PumpConfig struct {
	// Format is the wire format the pump exports.
	Format collector.Format
	// DataAddr is the data socket of the pump's stream on the bridge
	// (Bridge.DataAddr for stream 0, Bridge.StreamAddr for any other):
	// flow packets and control frames are sent there.
	DataAddr string
	// Stream is the pump's identity: the IPFIX observation domain or
	// NetFlow v9 source ID of its flow packets, and the key of its chaos
	// schedule.
	Stream uint32
	// Options build the pump's model oracle; they must match the
	// bridge's options or the bridge's model checks fail the fetch.
	Options core.Options
	// Chaos, when set, decides every datagram the pump sends — BEGIN,
	// flow packets, END copies, NACKs — by the spec's schedule of Stream:
	// it is sent once, dropped or sent twice (see internal/faultinject).
	// A fault is recorded on Options.Tracer as a fault-drop or fault-dup
	// instant. Nil sends every datagram once.
	Chaos *faultinject.Spec
}

// Pump is the exporter side of the wire-replay harness: it owns a
// synthetic model oracle and answers key requests by exporting the key's
// batch as flow packets framed by BEGIN/END control datagrams. One Pump
// serves one stream of a bridge (the exporter socket is dialed to the
// stream's data socket); it is driven entirely by requests, so an idle
// pump costs nothing. Several pumps, one a stream, may serve the same
// bridge: internal/cluster runs one per vantage-point shard (`lockdown
// replay`: one per vantage point).
type Pump struct {
	format collector.Format
	src    *core.SyntheticSource
	exp    *collector.Exporter
	ctrl   *net.UDPConn
	chaos  *faultinject.Schedule // nil without PumpConfig.Chaos

	requests     atomic.Int64
	badRequests  atomic.Int64
	nacks        atomic.Int64
	exportErrors atomic.Int64
	rowsSent     atomic.Int64

	closeOnce sync.Once
	done      chan struct{}
}

// NewPump dials the bridge's collector socket and opens the pump's
// request socket on an ephemeral loopback port.
func NewPump(cfg PumpConfig) (*Pump, error) {
	exp, err := collector.NewStreamExporter(cfg.Format, cfg.DataAddr, cfg.Stream)
	if err != nil {
		return nil, err
	}
	ctrl, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		exp.Close()
		return nil, fmt.Errorf("replay: listen pump control: %w", err)
	}
	p := &Pump{
		format: cfg.Format,
		src:    core.NewSyntheticSource(cfg.Options),
		exp:    exp,
		ctrl:   ctrl,
		done:   make(chan struct{}),
	}
	if cfg.Chaos != nil {
		p.chaos = cfg.Chaos.Schedule(cfg.Stream)
		tracer := cfg.Options.Tracer
		exp.SetCopies(func() int {
			copies, fault := p.chaos.Next()
			if fault != "" && tracer != nil {
				tracer.Instant(fault, "chaos", map[string]any{"stream": cfg.Stream})
			}
			return copies
		})
	}
	return p, nil
}

// CtrlAddr returns the address the pump receives key requests on.
func (p *Pump) CtrlAddr() string { return p.ctrl.LocalAddr().String() }

// Stats returns a snapshot of the pump's counters.
func (p *Pump) Stats() PumpStats {
	s := PumpStats{
		Requests:     p.requests.Load(),
		BadRequests:  p.badRequests.Load(),
		Nacks:        p.nacks.Load(),
		ExportErrors: p.exportErrors.Load(),
		RowsSent:     p.rowsSent.Load(),
	}
	if p.chaos != nil {
		s.Chaos = p.chaos.Counts()
	}
	return s
}

// Run serves key requests until ctx is cancelled or Close is called. The
// read blocks without a deadline, as the collector's does: cancelling ctx
// unblocks it, and Close closes the socket, which ends the loop.
func (p *Pump) Run(ctx context.Context) {
	go collector.UnblockOnDone(ctx, p.done, p.ctrl)
	buf := make([]byte, 2048)
	for {
		select {
		case <-ctx.Done():
			return
		case <-p.done:
			return
		default:
		}
		n, err := p.ctrl.Read(buf) // no reply goes to the address, so none is read
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // unblocked (the select above returns) or transient
		}
		gen, key, err := parseRequest(buf[:n])
		if err != nil {
			p.badRequests.Add(1)
			continue
		}
		p.requests.Add(1)
		p.serve(gen, key)
	}
}

// endCopies is how many times the pump sends a bucket's END frame. The
// bridge completes a bucket on its row count, and decides a short one at
// its END, so an attempt that lost rows and every END copy waits out the
// whole attempt timeout. A day bucket is a few datagrams, so under loss
// most attempts come up short: at a loss rate p the stall takes p² with
// two copies and p³ with three (1 in 400 against 1 in 8 000 attempts at
// 5 %), for one datagram more a bucket.
const endCopies = 3

// serve exports one requested bucket: BEGIN frame with the batch's row
// count and digest, the batch as flow packets, END frame (endCopies
// times). The digest is taken before the batch is encoded, from the batch
// itself, so it checks the codec and the transport: the bridge
// recomputes it over what it decoded. Oracle failures turn into a NACK
// frame so the bridge fails fast instead of timing out. The batch is the pump's own
// (see core.FlowSource) and nothing holds it once the bucket is closed,
// so every exit hands it back to the pool the next request draws from.
func (p *Pump) serve(gen uint32, key core.FlowKey) {
	b, err := p.src.Batch(key)
	if err != nil {
		p.nacks.Add(1)
		p.exp.WriteRaw(encodeCtrl(frameNack, gen, 0, 0, key, err.Error()))
		return
	}
	defer b.Release()
	if err := p.exp.WriteRaw(encodeCtrl(frameBegin, gen, b.Len(), b.Digest(), key, "")); err != nil {
		// Same policy as the export-error path below: close the bucket
		// (best effort) so the bridge retries via the fast
		// END-without-BEGIN path instead of waiting out its attempt
		// timeout.
		p.exportErrors.Add(1)
		p.end(gen, key, b.Len())
		return
	}
	if b.Len() > 0 {
		// Stamp the packets at the end of the key's day: the export
		// time of a day's flows, whatever the hour of the replay.
		if err := p.exp.ExportBatchAt(b, key.End()); err != nil {
			// A send error is transient wire trouble (e.g. buffer
			// exhaustion), not a model failure: no NACK — that would
			// abort the bridge's fetch fatally. Close the bucket so the
			// bridge sees the shortfall quickly and re-requests it.
			p.exportErrors.Add(1)
		} else {
			p.rowsSent.Add(int64(b.Len()))
		}
	}
	p.end(gen, key, b.Len())
}

// end closes a bucket: endCopies END frames, best effort.
func (p *Pump) end(gen uint32, key core.FlowKey, rows int) {
	pkt := encodeCtrl(frameEnd, gen, rows, 0, key, "")
	for range endCopies {
		p.exp.WriteRaw(pkt)
	}
}

// Close stops Run and releases both sockets.
func (p *Pump) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	err := p.ctrl.Close()
	if cerr := p.exp.Close(); err == nil {
		err = cerr
	}
	return err
}
