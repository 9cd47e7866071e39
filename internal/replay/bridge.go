package replay

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// DefaultAttemptTimeout is Config.AttemptTimeout when zero.
const DefaultAttemptTimeout = 5 * time.Second

// defaultBudgetAttempts sizes the default fetch budget in attempt
// timeouts: a zero Config.FetchBudget is this many AttemptTimeouts.
const defaultBudgetAttempts = 4

// readBuffer is the receive buffer the data socket asks for. Linux caps
// the request at net.core.rmem_max (4 MiB on the 2-core Linux box where
// the loss below was measured) and doubles it for its own accounting. That
// holds the day buckets of -scale 2 but not two of -scale 8 in flight
// at once (a flows/ day there is up to 104 datagrams, ~6.8 MB): the
// kernel then drops datagrams (Udp RcvbufErrors in /proc/net/snmp) and
// the bridge retries the day. Loss is detected and retried, so the size
// sets how often that happens, not whether output is correct.
const readBuffer = 4 << 20

// Route maps a flow key to the stream (pump) that serves it. The
// sharded cluster partitions the vantage points, so all keys of one
// vantage point route to one stream.
type Route func(core.FlowKey) uint32

// Config tunes a Bridge.
type Config struct {
	// Format is the wire format the bridge decodes.
	Format collector.Format
	// Options build the bridge's reference model; they must match the
	// pumps' options or verification fails.
	Options core.Options
	// Route maps each key to the stream serving it (nil routes every
	// key to stream 0 — the single-pump topology).
	Route Route
	// AttemptTimeout bounds how long one request waits for its complete
	// bucket before the bridge retries (DefaultAttemptTimeout if zero).
	AttemptTimeout time.Duration
	// FetchBudget is the per-fetch wall-clock deadline, and the only
	// bound on a fetch's retries: one key's attempts — requests, retries
	// with jittered backoff, re-routes after a cluster rebalance — share
	// it, so fast-failing attempts against a dead pump cannot end a fetch
	// early; the cluster gets the whole budget to re-partition. A fetch
	// that exhausts it fails. Zero means 4 × AttemptTimeout.
	FetchBudget time.Duration
}

// Stats counts what a bridge observed. All fields are cumulative; the
// aggregate Stats() sums every stream plus traffic attributable to none.
type Stats struct {
	Keys         int64 // buckets fetched successfully
	Rows         int64 // rows served to the engine
	Retries      int64 // re-requested buckets (loss, timeout or overrun)
	LostRows     int64 // rows missing from abandoned attempts
	OrphanRows   int64 // rows received outside any accepted bucket
	InboxDrops   int64 // rows dropped at a full stream inbox (stalled consumer; the bucket's shortfall shows up in LostRows)
	StaleFrames  int64 // control frames of an abandoned generation, an unknown stream, or a full inbox
	BadFrames    int64 // control frames that failed to parse
	DecodeErrors int64 // malformed flow datagrams: headers the collector rejected, records a decoder rejected
}

func (s *Stats) add(o Stats) {
	s.Keys += o.Keys
	s.Rows += o.Rows
	s.Retries += o.Retries
	s.LostRows += o.LostRows
	s.OrphanRows += o.OrphanRows
	s.InboxDrops += o.InboxDrops
	s.StaleFrames += o.StaleFrames
	s.BadFrames += o.BadFrames
	s.DecodeErrors += o.DecodeErrors
}

// inboxSize is a stream inbox's capacity in datagrams. A bucket is its
// BEGIN frame, a day's flow datagrams and three END frames; a NetFlow v9
// or IPFIX message fills a UDP datagram, so the largest bucket the suite
// draws is 104 flow datagrams at -scale 8, 108 datagrams in all. The
// inbox holds many such buckets: the slack is for a consumer that falls
// behind a burst, or a stale attempt's datagrams still arriving. The
// demux goroutine never blocks on a stream (a stalled consumer must not
// stall the other streams), so a full inbox drops like the wire does —
// the fetch detects the shortfall and re-requests. A slot is two
// pointers; what the queued datagrams hold is bounded by the one bucket
// in flight per stream.
const inboxSize = 8192

// inboxItem is one datagram of a stream, in arrival order: a parsed
// control frame or an undecoded flow datagram. Both are pointers, so a
// full inbox holds two words a slot.
type inboxItem struct {
	frame *ctrlFrame
	pkt   *collector.Datagram
}

// rowCounter decodes the flow datagrams nobody keeps — orphans, inbox
// drops — only to count their rows, into a scratch batch of the one
// cheapest column. It is not safe for concurrent use.
type rowCounter struct {
	decode  collector.Decoder
	scratch *flowrec.Batch
}

func newRowCounter(col *collector.Collector) rowCounter {
	return rowCounter{decode: col.NewDecoder(), scratch: flowrec.NewProjected(0, flowrec.ColProto)}
}

// rows is how many rows pkt carries; a datagram that fails to decode
// counts in errs and as none.
func (c rowCounter) rows(pkt []byte, errs *obs.Counter) int64 {
	c.scratch.Reset()
	n, err := c.decode(c.scratch, pkt)
	if err != nil {
		errs.Add(1)
	}
	return int64(n)
}

// stream is the per-pump demux state of a bridge: the request socket,
// the generation counter, the inbox the demux goroutine routes the
// stream's datagrams into, and the stream's accounting.
type stream struct {
	id uint32

	// fetchMu serialises fetches on this stream — one bucket in flight
	// per stream keeps the packet→bucket attribution unambiguous without
	// per-packet bucket tags, while buckets of different streams are in
	// flight concurrently. gen is guarded by it.
	fetchMu sync.Mutex
	gen     uint32

	req *net.UDPConn // set at ConnectStream, never replaced

	inbox chan inboxItem

	// decode fills the stream's buckets straight from its datagrams, and
	// orphans counts the rows of those that belong to none; both are the
	// fetch's, under fetchMu.
	decode  collector.Decoder
	orphans rowCounter

	// The accounting instruments come from the bridge's registry (nil is
	// fine: the nil-safe registry hands out standalone counters), labelled
	// by stream id so /metrics exposes the same per-stream breakdown as
	// Snapshot().Streams.
	keys        *obs.Counter
	rows        *obs.Counter
	retries     *obs.Counter
	lostRows    *obs.Counter
	orphanRows  *obs.Counter
	inboxDrops  *obs.Counter
	staleFrames *obs.Counter
}

func newStream(id uint32, req *net.UDPConn, col *collector.Collector, reg *obs.Registry) *stream {
	lv := fmt.Sprintf("%d", id)
	vec := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "stream").With(lv)
	}
	return &stream{
		id:      id,
		req:     req,
		inbox:   make(chan inboxItem, inboxSize),
		decode:  col.NewDecoder(),
		orphans: newRowCounter(col),
		keys: vec("lockdown_bridge_keys_total",
			"Buckets fetched successfully off the wire."),
		rows: vec("lockdown_bridge_rows_total",
			"Rows served to the engine."),
		retries: vec("lockdown_bridge_retries_total",
			"Buckets re-requested after loss, timeout or overrun."),
		lostRows: vec("lockdown_bridge_lost_rows_total",
			"Rows missing from abandoned fetch attempts."),
		orphanRows: vec("lockdown_bridge_orphan_rows_total",
			"Rows received outside any accepted bucket."),
		inboxDrops: vec("lockdown_bridge_inbox_drops_total",
			"Rows dropped at a full stream inbox (stalled consumer)."),
		staleFrames: vec("lockdown_bridge_stale_frames_total",
			"Control frames of an abandoned generation or a full inbox."),
	}
}

func (st *stream) stats() Stats {
	return Stats{
		Keys:        st.keys.Value(),
		Rows:        st.rows.Value(),
		Retries:     st.retries.Value(),
		LostRows:    st.lostRows.Value(),
		OrphanRows:  st.orphanRows.Value(),
		InboxDrops:  st.inboxDrops.Value(),
		StaleFrames: st.staleFrames.Value(),
	}
}

// Bridge is the collector side of the wire-replay harness: a
// core.FlowSource that serves a run's flow batches off live NetFlow/IPFIX
// export. For each key a run's read plan asks for, once per run, it
// routes the key to the stream serving it, requests it from that stream's
// pump, demuxes the announced bucket out of its stream's datagrams,
// decoding each straight into the bucket's columns, verifies the rows
// bit-for-bit against its own reference model and returns the wire batch. Buckets hit by datagram
// loss are re-requested; everything observed on the way is accounted per
// stream in Stats.
//
// Demux is by exporter stream identity: the collector tags every
// datagram with the stream carried in its header, a single demux
// goroutine routes flow datagrams and control frames into one inbox per
// stream in datagram order, undecoded, and each stream runs its bucket
// state machine independently. One bucket is in flight per stream (a
// second fetch waits on the stream's fetch mutex); with K connected
// streams, K buckets stream concurrently.
type Bridge struct {
	cfg    Config
	src    *core.SyntheticSource
	col    *collector.Collector
	tracer *obs.Tracer

	mu      sync.Mutex
	streams map[uint32]*stream
	closed  bool // demux exited; stream inboxes are closed

	// Traffic attributable to no registered stream, plus collector-level
	// accounting.
	badFrames    *obs.Counter
	staleFrames  *obs.Counter
	orphanRows   *obs.Counter
	decodeErrors *obs.Counter

	closeOnce sync.Once
}

// NewBridge opens the bridge's data socket on an ephemeral loopback port
// (the pumps learn it from DataAddr). Connect at least one pump
// (ConnectPump or ConnectStream) and call Start before using it as a
// FlowSource.
func NewBridge(cfg Config) (*Bridge, error) {
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.FetchBudget <= 0 {
		cfg.FetchBudget = defaultBudgetAttempts * cfg.AttemptTimeout
	}
	col, err := collector.NewCollector(cfg.Format, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	col.SetReadBuffer(readBuffer) // best effort; loss is detected and retried anyway
	reg := cfg.Options.Obs
	col.Instrument(reg)
	return &Bridge{
		cfg:    cfg,
		src:    core.NewSyntheticSource(cfg.Options),
		col:    col,
		tracer: cfg.Options.Tracer,
		badFrames: reg.Counter("lockdown_bridge_bad_frames_total",
			"Control frames that failed to parse."),
		staleFrames: reg.CounterVec("lockdown_bridge_stale_frames_total",
			"Control frames of an abandoned generation or a full inbox.", "stream").With("none"),
		orphanRows: reg.CounterVec("lockdown_bridge_orphan_rows_total",
			"Rows received outside any accepted bucket.", "stream").With("none"),
		decodeErrors: reg.Counter("lockdown_bridge_decode_errors_total",
			"Malformed flow datagrams: headers the collector rejected, records a decoder rejected."),
		streams: make(map[uint32]*stream),
	}, nil
}

// DataAddr returns the address flow packets must be exported to (the
// pumps' data destination).
func (b *Bridge) DataAddr() string { return b.col.Addr() }

// ConnectPump dials a single pump as stream 0: the one-pump topology, with
// a nil Route. The commands run one stream per shard instead (see
// internal/cluster); this remains for the benchmark harness and the
// single-pump tests.
func (b *Bridge) ConnectPump(addr string) error { return b.ConnectStream(0, addr) }

// ConnectStream dials the request socket of the pump serving the given
// stream and registers the stream for demux. A stream is served by one
// pump for the bridge's life: an id that is already registered is
// refused.
func (b *Bridge) ConnectStream(id uint32, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("replay: resolve pump %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return fmt.Errorf("replay: dial pump %q: %w", addr, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		conn.Close()
		return fmt.Errorf("replay: bridge is closed")
	case b.streams[id] != nil:
		conn.Close()
		return fmt.Errorf("replay: stream %d is already connected", id)
	}
	b.streams[id] = newStream(id, conn, b.col, b.cfg.Options.Obs)
	return nil
}

// stream looks a registered stream up (nil if unknown).
func (b *Bridge) stream(id uint32) *stream {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.streams[id]
}

// route maps a key to its stream id.
func (b *Bridge) route(k core.FlowKey) uint32 {
	if b.cfg.Route == nil {
		return 0
	}
	return b.cfg.Route(k)
}

// Start runs the collector receive loop, the demux goroutine and the
// decode-error drain until ctx is cancelled or Close is called.
func (b *Bridge) Start(ctx context.Context) {
	go b.col.Run(ctx)
	go b.demux()
	go func() {
		for range b.col.Errors() {
			b.decodeErrors.Add(1)
		}
	}()
}

// demux routes the collector's datagrams, flow datagrams and control
// frames alike, into the per-stream inboxes in the order they arrived. It
// decodes only what it cannot hand on — a datagram of an unknown stream,
// or one a full inbox drops — and only to count its rows. It never blocks
// on a stream: a full inbox drops like the wire does (the fetch
// re-requests), so one stalled stream cannot stall the others. When the
// collector stops, every stream inbox is closed so blocked fetches fail
// fast.
func (b *Bridge) demux() {
	counter := newRowCounter(b.col)
	for d := range b.col.Tagged() {
		if d.Control {
			f, err := parseCtrl(d.Data)
			d.Release()
			if err != nil {
				b.badFrames.Add(1)
				continue
			}
			st := b.stream(f.stream)
			if st == nil {
				b.staleFrames.Add(1)
				continue
			}
			select {
			case st.inbox <- inboxItem{frame: &f}:
			default:
				st.staleFrames.Add(1)
			}
			continue
		}
		st := b.stream(d.Stream)
		if st == nil {
			b.orphanRows.Add(counter.rows(d.Data, b.decodeErrors))
			d.Release()
			continue
		}
		select {
		case st.inbox <- inboxItem{pkt: d}:
		default:
			// Not orphans (the rows may belong to an accepted bucket,
			// whose shortfall the fetch accounts as lost) — a dedicated
			// counter avoids double-booking them.
			st.inboxDrops.Add(counter.rows(d.Data, b.decodeErrors))
			d.Release()
		}
	}
	b.mu.Lock()
	b.closed = true
	for _, st := range b.streams {
		close(st.inbox)
	}
	b.mu.Unlock()
}

// Close stops the bridge and releases its sockets.
func (b *Bridge) Close() error {
	err := b.col.Close()
	b.closeOnce.Do(func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, st := range b.streams {
			st.req.Close()
		}
	})
	return err
}

// Snapshot is one consistent reading of the bridge's accounting: the
// per-stream counters keyed by stream id, and the aggregate derived from
// those same readings plus the traffic attributable to no stream
// (collector-level bad frames and decode errors). Because Total is summed
// from Streams rather than read separately, no stream can ever exceed it.
type Snapshot struct {
	Total   Stats
	Streams map[uint32]Stats
}

// Snapshot reads every stream's counters once, under one acquisition of
// the bridge lock.
func (b *Bridge) Snapshot() Snapshot {
	snap := Snapshot{Total: Stats{
		OrphanRows:   b.orphanRows.Value(),
		StaleFrames:  b.staleFrames.Value(),
		BadFrames:    b.badFrames.Value(),
		DecodeErrors: b.decodeErrors.Value(),
	}}
	b.mu.Lock()
	defer b.mu.Unlock()
	snap.Streams = make(map[uint32]Stats, len(b.streams))
	for id, st := range b.streams {
		s := st.stats()
		snap.Streams[id] = s
		snap.Total.add(s)
	}
	return snap
}

// Stats returns the bridge's counters aggregated over all streams plus
// traffic attributable to none (Snapshot().Total).
func (b *Bridge) Stats() Stats { return b.Snapshot().Total }

// FlowBatch implements core.FlowSource: the UTC day t falls in.
func (b *Bridge) FlowBatch(vp synth.VantagePoint, t time.Time) (*flowrec.Batch, error) {
	return b.fetch(core.FlowKey{Kind: core.KindFlows, VP: vp, Hour: core.DayOf(t)})
}

// VPNFlowBatch implements core.FlowSource: the UTC day t falls in.
func (b *Bridge) VPNFlowBatch(vp synth.VantagePoint, t time.Time) (*flowrec.Batch, error) {
	return b.fetch(core.FlowKey{Kind: core.KindVPNFlows, VP: vp, Hour: core.DayOf(t)})
}

// ComponentFlowBatch implements core.FlowSource: the component's UTC day
// t falls in.
func (b *Bridge) ComponentFlowBatch(vp synth.VantagePoint, name string, t time.Time) (*flowrec.Batch, error) {
	return b.fetch(core.FlowKey{Kind: core.KindComponentFlows, VP: vp, Name: name, Hour: core.DayOf(t)})
}

// fatalError marks fetch failures that a retry cannot cure (model
// mismatch, NACK, verification failure).
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func fatalf(format string, a ...any) error { return fatalError{fmt.Errorf(format, a...)} }

// exhausted reports whether a fetch's retry budget has run out: its
// deadline alone decides, so a fetch rides out fast-failing attempts —
// a dead pump whose keys have not moved yet — until the deadline.
func exhausted(deadline time.Time) bool { return !time.Now().Before(deadline) }

// Retry backoff: exponential from retryBackoffBase, capped, with ±50%
// jitter so concurrent fetches against one recovering pump spread out.
const (
	retryBackoffBase = 25 * time.Millisecond
	retryBackoffCap  = 500 * time.Millisecond
)

// errNoAnswer marks an attempt that no frame of the pump decided: its
// request could not be sent, or collect timed out. Only such an attempt
// is followed by a backoff; any other failure (END short, END without
// BEGIN, overrun, verification) came from a live pump, and the retry is
// sent at once.
var errNoAnswer = errors.New("no answer from pump")

// backoff sleeps out the pre-retry delay after an unanswered attempt,
// truncated to the fetch deadline: the pump may be down, and a rebalance
// moving its keys needs the time.
func (b *Bridge) backoff(attempts int, deadline time.Time) {
	d := min(retryBackoffBase<<min(attempts-1, 6), retryBackoffCap)
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // ±50% jitter
	if remaining := time.Until(deadline); d > remaining {
		d = remaining
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// fetch requests one bucket off the wire, retrying lost attempts under
// the fetch's deadline budget, and returns the verified batch. The key
// is re-routed between attempts: after a cluster rebalance moved its
// vantage point to a surviving shard, the next attempt requests it from
// the new stream (with a fresh generation, so anything still in flight
// from the dead assignment is discarded as stale). An exhausted budget
// fails the fetch.
func (b *Bridge) fetch(k core.FlowKey) (*flowrec.Batch, error) {
	sp := b.tracer.Start("fetch", "bridge")
	got, err := b.fetchKey(k)
	if sp.Active() {
		args := map[string]any{"key": k.String()}
		if err != nil {
			args["error"] = err.Error()
		} else {
			args["rows"] = got.Len()
		}
		sp.EndArgs(args)
	}
	return got, err
}

func (b *Bridge) fetchKey(k core.FlowKey) (*flowrec.Batch, error) {
	// Build the reference before taking the stream's fetch lock so
	// reference generation of one key overlaps the wire wait of another.
	// A key the model cannot build is refused here, before any pump is
	// asked.
	ref, err := b.src.Batch(k)
	if err != nil {
		return nil, err
	}
	// The reference is this fetch's alone and every attempt compares
	// against it, so it goes back to the pool only when the fetch is over.
	defer ref.Release()
	deadline := time.Now().Add(b.cfg.FetchBudget)
	attempts := 0
	var lastErr error
	for {
		id := b.route(k)
		st := b.stream(id)
		if st == nil {
			// A mis-wired topology: the cluster connects every shard
			// before it serves, and a rebalance moves keys only to
			// streams it has connected.
			return nil, fmt.Errorf("replay: %s: no pump connected for stream %d", k, id)
		}
		got, err := b.fetchFromStream(st, k, ref, deadline, &attempts, lastErr)
		if err == nil {
			return got, nil
		}
		var fe fatalError
		if errors.As(err, &fe) {
			return nil, fmt.Errorf("replay: %s: %w", k, err)
		}
		lastErr = err
		if exhausted(deadline) {
			return nil, fmt.Errorf("replay: %s: giving up after %d attempts in %v: %w", k, attempts, b.cfg.FetchBudget, lastErr)
		}
		// Not exhausted: the stream's route changed mid-fetch; loop to
		// re-route and continue on the new stream.
	}
}

// fetchFromStream runs attempts of one key against one stream, holding
// the stream's fetch mutex (one bucket in flight per stream). It returns
// a non-fatal error when the retry budget runs out or when the key's
// route moved off this stream mid-retry — the caller re-routes; fetch
// attempts and the retry accounting continue seamlessly across streams
// through the shared counters. lastErr is the failed attempt before this
// call (nil on a fetch's first); each retry carries its predecessor's
// error onto the trace and backs off only after errNoAnswer.
func (b *Bridge) fetchFromStream(st *stream, k core.FlowKey, ref *flowrec.Batch, deadline time.Time, attempts *int, lastErr error) (*flowrec.Batch, error) {
	st.fetchMu.Lock()
	defer st.fetchMu.Unlock()
	for {
		if *attempts > 0 {
			if exhausted(deadline) {
				return nil, lastErr
			}
			st.retries.Add(1)
			if b.tracer != nil {
				b.tracer.Instant("fetch-retry", "bridge",
					map[string]any{"key": k.String(), "stream": st.id, "attempt": *attempts, "error": lastErr.Error()})
			}
			if errors.Is(lastErr, errNoAnswer) {
				b.backoff(*attempts, deadline)
			}
		}
		*attempts++
		st.gen++
		if _, err := st.req.Write(encodeRequest(st.id, st.gen, k)); err != nil {
			lastErr = fmt.Errorf("%w: %w", errNoAnswer, err)
			if b.routeMoved(k, st.id) {
				return nil, lastErr
			}
			continue
		}
		got, err := b.collect(st, st.gen, k, ref.Len(), deadline)
		if err != nil {
			var fe fatalError
			if errors.As(err, &fe) {
				return nil, err
			}
			lastErr = err
			if b.routeMoved(k, st.id) {
				return nil, lastErr
			}
			continue
		}
		if err := verify(ref, got); err != nil {
			// Usually stray rows that happened to fill the bucket; a
			// genuine model divergence keeps failing and surfaces after
			// the budget runs out.
			got.Release()
			lastErr = err
			continue
		}
		st.keys.Add(1)
		st.rows.Add(int64(got.Len()))
		return got, nil
	}
}

// routeMoved reports whether the key no longer routes to the given
// stream (a cluster rebalance re-targeted it mid-fetch).
func (b *Bridge) routeMoved(k core.FlowKey, id uint32) bool {
	return b.cfg.Route != nil && b.route(k) != id
}

// collect gathers one announced bucket from the stream's inbox, which
// holds the stream's datagrams in the order they arrived. The pump serves
// one request at a time, so everything of an earlier generation comes
// before this generation's BEGIN, and the state machine is a straight
// line: data before BEGIN belongs to no accepted bucket and is orphaned
// at once (leftovers of a failed attempt, or rows reordered in front of
// BEGIN, which then cost a retry); the bucket completes on row count; and
// this generation's END with rows still missing is loss, decided on the
// spot. Frames of other generations are skipped, and all but END counted
// as stale: a bucket completes on row count, so its END is usually read
// by the next fetch. The bucket stores the key's columns, the set the
// pump exported and the reference holds; expected is the reference's row
// count: it sizes the bucket, and a BEGIN frame announcing anything else
// is fatal. Each flow datagram is decoded once, straight into the
// bucket's columns; a datagram that fails to decode adds no row and is
// counted in DecodeErrors, so its bucket comes up short at END. The
// attempt timeout, the one wait left, is truncated to the fetch deadline
// so the last attempt cannot overrun the budget. An attempt that fails
// (loss, overrun, timeout) releases its bucket to the pool, where the
// next reference or export batch picks the columns up; a completed one,
// once verified, passes to the caller, which reduces it and drops it
// without releasing it. That is also why the bucket is allocated at its
// exact size and not drawn from the pool: a pooled batch handed over
// would leave the pool for good, with whatever capacity it happened to
// have.
func (b *Bridge) collect(st *stream, gen uint32, k core.FlowKey, expected int, deadline time.Time) (_ *flowrec.Batch, err error) {
	timeout := b.cfg.AttemptTimeout
	if remaining := time.Until(deadline); remaining < timeout {
		timeout = max(remaining, 10*time.Millisecond)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	out := flowrec.NewProjected(expected, k.Columns())
	defer func() {
		if err != nil {
			out.Release()
		}
	}()
	begun := false // BEGIN seen, announcing the expected rows
	for !begun || out.Len() < expected {
		var it inboxItem
		var ok bool
		select {
		case it, ok = <-st.inbox:
			if !ok {
				return nil, fatalf("collector closed")
			}
		case <-timer.C:
			if begun {
				st.lostRows.Add(int64(expected - out.Len()))
			}
			return nil, fmt.Errorf("%w: timed out after %v with %d of %d rows", errNoAnswer, timeout, out.Len(), expected)
		}
		if pkt := it.pkt; pkt != nil {
			if !begun {
				st.orphanRows.Add(st.orphans.rows(pkt.Data, b.decodeErrors))
				pkt.Release()
				continue
			}
			// An overrun (a duplicate, or stray rows) abandons the
			// attempt; the excess is accounted as orphan rows, and the
			// rest of the attempt's data as orphans of the next one.
			_, derr := st.decode(out, pkt.Data)
			pkt.Release()
			if derr != nil {
				b.decodeErrors.Add(1)
				continue
			}
			if out.Len() > expected {
				st.orphanRows.Add(int64(out.Len() - expected))
				return nil, fmt.Errorf("bucket overran: %d rows announced, %d received", expected, out.Len())
			}
			continue
		}
		f := it.frame
		if f.gen != gen || f.key != k {
			if f.typ != frameEnd {
				st.staleFrames.Add(1)
			}
			continue
		}
		switch f.typ {
		case frameBegin:
			if f.rows != expected {
				return nil, fatalf("pump announced %d rows, reference model has %d (options mismatch between pump and bridge?)", f.rows, expected)
			}
			begun = true
		case frameNack:
			return nil, fatalf("pump: %s", f.msg)
		case frameEnd:
			if !begun {
				// The BEGIN frame itself was lost; nothing of this
				// bucket is attributable.
				st.lostRows.Add(int64(f.rows))
				return nil, fmt.Errorf("bucket END without BEGIN (%d rows announced)", f.rows)
			}
			st.lostRows.Add(int64(expected - out.Len()))
			return nil, fmt.Errorf("bucket END with %d of %d rows", out.Len(), expected)
		}
	}
	return out, nil
}

// verify checks the wire batch against the reference column by column,
// over the columns both store: the key's set, which the bucket and the
// reference share. NetFlow v9 and IPFIX carry every column exactly, so
// every bit must match.
func verify(ref, got *flowrec.Batch) error {
	if got.Len() != ref.Len() || got.Columns() != ref.Columns() {
		return fmt.Errorf("verification: %d rows of %s off the wire, %d rows of %s in the reference", got.Len(), got.Columns(), ref.Len(), ref.Columns())
	}
	for _, err := range []error{
		sameCol("StartNs", ref.StartNs, got.StartNs),
		sameCol("EndNs", ref.EndNs, got.EndNs),
		sameCol("SrcIP", ref.SrcIP, got.SrcIP),
		sameCol("DstIP", ref.DstIP, got.DstIP),
		sameCol("SrcPort", ref.SrcPort, got.SrcPort),
		sameCol("DstPort", ref.DstPort, got.DstPort),
		sameCol("Proto", ref.Proto, got.Proto),
		sameCol("Bytes", ref.Bytes, got.Bytes),
		sameCol("Packets", ref.Packets, got.Packets),
		sameCol("SrcAS", ref.SrcAS, got.SrcAS),
		sameCol("DstAS", ref.DstAS, got.DstAS),
		sameCol("InIf", ref.InIf, got.InIf),
		sameCol("OutIf", ref.OutIf, got.OutIf),
		sameCol("Dir", ref.Dir, got.Dir),
		sameCol("TCPFlags", ref.TCPFlags, got.TCPFlags),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameCol reports the first row whose wire value differs from the
// reference's (none for a column neither batch stores).
func sameCol[T comparable](col string, ref, got []T) error {
	for i := range ref {
		if got[i] != ref[i] {
			return mismatch(i, col, ref[i], got[i])
		}
	}
	return nil
}

func mismatch(row int, col string, want, got any) error {
	return fmt.Errorf("verification: row %d column %s: wire %v != reference %v", row, col, got, want)
}
