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

// readBuffer is the receive buffer each stream's data socket asks for.
// Linux caps the request at net.core.rmem_max (4 MiB on the 2-core Linux
// box the numbers here were measured on) and doubles it for its own
// accounting. A socket carries one stream, and a stream one bucket at a
// time, which its fetch drains as it arrives: the largest bucket the suite
// draws, a -scale 8 flows/ day of 104 datagrams (~6.8 MB), is not dropped
// there. (When every stream shared one socket, two such buckets in flight
// overflowed it: the kernel dropped datagrams, counted as Udp
// RcvbufErrors in /proc/net/snmp, and the bridge retried the days.) Loss
// is detected and retried, so the size sets how often that happens, not
// whether output is correct.
const readBuffer = 4 << 20

// Route maps a flow key to the stream (pump) that serves it. The
// sharded cluster partitions the vantage points, so all keys of one
// vantage point route to one stream.
type Route func(core.FlowKey) uint32

// Config tunes a Bridge.
type Config struct {
	// Format is the wire format the bridge decodes.
	Format collector.Format
	// Options build the bridge's own model, which each bucket's row count
	// and checked hour come from; they must match the pumps' options, or
	// a fetch fails as a model mismatch.
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
// aggregate Stats() sums every stream plus the bridge-wide frame and
// decode failures.
type Stats struct {
	Keys         int64 // buckets fetched successfully
	Rows         int64 // rows served to the engine
	Retries      int64 // re-requested buckets (loss, timeout or overrun)
	LostRows     int64 // rows missing from abandoned attempts
	OrphanRows   int64 // rows received outside any accepted bucket
	StaleFrames  int64 // control frames of an abandoned generation
	BadFrames    int64 // control frames that failed to parse
	DecodeErrors int64 // malformed flow datagrams: headers the collector rejected, records a decoder rejected
}

func (s *Stats) add(o Stats) {
	s.Keys += o.Keys
	s.Rows += o.Rows
	s.Retries += o.Retries
	s.LostRows += o.LostRows
	s.OrphanRows += o.OrphanRows
	s.StaleFrames += o.StaleFrames
	s.BadFrames += o.BadFrames
	s.DecodeErrors += o.DecodeErrors
}

// rowCounter decodes the flow datagrams nobody keeps, the orphans, only
// to count their rows, into a scratch batch of the one cheapest column. It
// is not safe for concurrent use.
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

// stream is one pump's side of a bridge: its data socket, the request
// socket, the generation counter and the stream's accounting.
type stream struct {
	id uint32

	// col is the stream's data socket: the pump exports its flow packets
	// and control frames there, so everything it delivers is this
	// stream's, in the order it arrived.
	col *collector.Collector

	// fetchMu serialises fetches on this stream — one bucket in flight
	// per stream keeps the packet→bucket attribution unambiguous without
	// per-packet bucket tags, while buckets of different streams are in
	// flight concurrently. gen is guarded by it.
	fetchMu sync.Mutex
	gen     uint32

	req *net.UDPConn // set at ConnectStream (under the bridge lock), never replaced

	// decode fills the stream's buckets straight from its datagrams,
	// orphans counts the rows of those that belong to none, and timer
	// bounds each attempt (collect resets it, and stops it on return); all
	// three are the fetch's, under fetchMu.
	decode  collector.Decoder
	orphans rowCounter
	timer   *time.Timer

	// The accounting instruments come from the bridge's registry (nil is
	// fine: the nil-safe registry hands out standalone counters), labelled
	// by stream id so /metrics exposes the same per-stream breakdown as
	// Snapshot().Streams.
	keys        *obs.Counter
	rows        *obs.Counter
	retries     *obs.Counter
	lostRows    *obs.Counter
	orphanRows  *obs.Counter
	staleFrames *obs.Counter
}

func newStream(id uint32, col *collector.Collector, reg *obs.Registry) *stream {
	lv := fmt.Sprintf("%d", id)
	vec := func(name, help string) *obs.Counter {
		return reg.CounterVec(name, help, "stream").With(lv)
	}
	timer := time.NewTimer(DefaultAttemptTimeout)
	timer.Stop()
	return &stream{
		id:      id,
		col:     col,
		decode:  col.NewDecoder(),
		orphans: newRowCounter(col),
		timer:   timer,
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
		staleFrames: vec("lockdown_bridge_stale_frames_total",
			"Control frames of an abandoned generation."),
	}
}

func (st *stream) stats() Stats {
	return Stats{
		Keys:        st.keys.Value(),
		Rows:        st.rows.Value(),
		Retries:     st.retries.Value(),
		LostRows:    st.lostRows.Value(),
		OrphanRows:  st.orphanRows.Value(),
		StaleFrames: st.staleFrames.Value(),
	}
}

// Bridge is the collector side of the wire-replay harness: a
// core.FlowSource that serves a run's flow batches off live NetFlow/IPFIX
// export. For each key a run's read plan asks for, once per run, it
// routes the key to the stream serving it, requests it from that stream's
// pump, reads the announced bucket off the stream's data socket, decoding
// each datagram straight into the bucket's columns, checks the bucket —
// its digest against the one the pump announced, its row count and one
// hour of its rows against its own model, which never draws the day — and
// returns the wire batch. Buckets hit by datagram loss or damage are
// re-requested; everything observed on the way is accounted per stream in
// Stats.
//
// A stream is a socket: each pump exports to a data socket of its own
// (DataAddr for stream 0, StreamAddr for any other), so the kernel sorts
// the pumps' datagrams apart and each stream runs its bucket state
// machine on its own collector, in datagram order. One bucket is in
// flight per stream (a second fetch waits on the stream's fetch mutex);
// with K connected streams, K buckets stream concurrently.
type Bridge struct {
	cfg    Config
	model  *core.SyntheticSource // hour counts and one hour a key, never a day
	tracer *obs.Tracer

	mu      sync.Mutex
	streams map[uint32]*stream // every stream with a data socket
	ctx     context.Context    // Start's; nil before it

	// Bridge-wide accounting: frames and datagrams that failed to parse,
	// whatever stream's socket they arrived on.
	badFrames    *obs.Counter
	decodeErrors *obs.Counter

	closeOnce sync.Once
}

// NewBridge opens stream 0's data socket on an ephemeral loopback port
// (its pump learns it from DataAddr). Connect at least one pump
// (ConnectPump or ConnectStream) and call Start before using it as a
// FlowSource.
func NewBridge(cfg Config) (*Bridge, error) {
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = DefaultAttemptTimeout
	}
	if cfg.FetchBudget <= 0 {
		cfg.FetchBudget = defaultBudgetAttempts * cfg.AttemptTimeout
	}
	reg := cfg.Options.Obs
	b := &Bridge{
		cfg:    cfg,
		model:  core.NewSyntheticSource(cfg.Options),
		tracer: cfg.Options.Tracer,
		badFrames: reg.Counter("lockdown_bridge_bad_frames_total",
			"Control frames that failed to parse."),
		decodeErrors: reg.Counter("lockdown_bridge_decode_errors_total",
			"Malformed flow datagrams: headers the collector rejected, records a decoder rejected."),
		streams: make(map[uint32]*stream),
	}
	if _, err := b.open(0); err != nil {
		return nil, err
	}
	return b, nil
}

// DataAddr returns the address stream 0's pump exports to: the data
// socket of the one-pump topology.
func (b *Bridge) DataAddr() string {
	addr, _ := b.StreamAddr(0) // open since NewBridge: no error
	return addr
}

// StreamAddr opens the data socket of the given stream, unless it is open
// already, and returns its address: where the stream's pump exports its
// flow packets and control frames.
func (b *Bridge) StreamAddr(id uint32) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, err := b.open(id)
	if err != nil {
		return "", err
	}
	return st.col.Addr(), nil
}

// open returns the stream of the given id, opening its data socket first
// if it has none; a stream opened after Start starts receiving at once.
// The caller holds b.mu (NewBridge needs no lock: no one else has b yet).
func (b *Bridge) open(id uint32) (*stream, error) {
	if st := b.streams[id]; st != nil {
		return st, nil
	}
	col, err := collector.NewCollector(b.cfg.Format, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	col.SetReadBuffer(readBuffer) // best effort; loss is detected and retried anyway
	col.Instrument(b.cfg.Options.Obs)
	st := newStream(id, col, b.cfg.Options.Obs)
	b.streams[id] = st
	if b.ctx != nil {
		b.run(st)
	}
	return st, nil
}

// ConnectPump dials a single pump as stream 0: the one-pump topology, with
// a nil Route. The commands run one stream per shard instead (see
// internal/cluster); this remains for the benchmark harness and the
// single-pump tests.
func (b *Bridge) ConnectPump(addr string) error { return b.ConnectStream(0, addr) }

// ConnectStream dials the request socket of the pump serving the given
// stream, opening the stream's data socket if StreamAddr has not. A
// stream is served by one pump for the bridge's life: an id that is
// already connected is refused.
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
	st, err := b.open(id)
	switch {
	case err != nil:
		conn.Close()
		return err
	case st.req != nil:
		conn.Close()
		return fmt.Errorf("replay: stream %d is already connected", id)
	}
	st.req = conn
	return nil
}

// stream looks a connected stream up (nil if none is).
func (b *Bridge) stream(id uint32) *stream {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.streams[id]; st != nil && st.req != nil {
		return st
	}
	return nil
}

// route maps a key to its stream id.
func (b *Bridge) route(k core.FlowKey) uint32 {
	if b.cfg.Route == nil {
		return 0
	}
	return b.cfg.Route(k)
}

// Start runs every stream's collector receive loop and decode-error drain
// until ctx is cancelled or Close is called; a stream opened later starts
// when it opens.
func (b *Bridge) Start(ctx context.Context) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctx = ctx
	for _, st := range b.streams {
		b.run(st)
	}
}

// run starts one stream's receive loop and decode-error drain. When the
// collector stops it closes both channels: the drain ends, and a fetch
// blocked on the stream fails fast.
func (b *Bridge) run(st *stream) {
	go st.col.Run(b.ctx)
	go func() {
		for range st.col.Errors() {
			b.decodeErrors.Add(1)
		}
	}()
}

// Close stops the bridge and releases its sockets.
func (b *Bridge) Close() error {
	var err error
	b.closeOnce.Do(func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, st := range b.streams {
			if cerr := st.col.Close(); err == nil {
				err = cerr
			}
			if st.req != nil {
				st.req.Close()
			}
		}
	})
	return err
}

// Snapshot is one consistent reading of the bridge's accounting: the
// per-stream counters keyed by stream id, and the aggregate derived from
// those same readings plus the bridge-wide bad frames and decode errors.
// Because Total is summed
// from Streams rather than read separately, no stream can ever exceed it.
type Snapshot struct {
	Total   Stats
	Streams map[uint32]Stats
}

// Snapshot reads every stream's counters once, under one acquisition of
// the bridge lock.
func (b *Bridge) Snapshot() Snapshot {
	snap := Snapshot{Total: Stats{
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
// the bridge-wide ones (Snapshot().Total).
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

// fatalError marks fetch failures that a retry cannot cure (a row count
// or checked hour that differs from the bridge's model, a NACK).
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
// BEGIN, overrun, a digest that differs) came from a live pump, and the
// retry is sent at once.
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
// the fetch's deadline budget, and returns the checked batch. The key
// is re-routed between attempts: after a cluster rebalance moved its
// vantage point to a surviving shard, the next attempt requests it from
// the new stream (with a fresh generation, so anything still in flight
// from the dead assignment is discarded as stale). An exhausted budget
// fails the fetch. Its trace span records checked_rows, the rows the
// bridge drew from its own model for the key: one hour of it.
func (b *Bridge) fetch(k core.FlowKey) (*flowrec.Batch, error) {
	sp := b.tracer.Start("fetch", "bridge")
	got, checked, err := b.fetchKey(k)
	if sp.Active() {
		args := map[string]any{"key": k.String(), "checked_rows": checked}
		if err != nil {
			args["error"] = err.Error()
		} else {
			args["rows"] = got.Len()
		}
		sp.EndArgs(args)
	}
	return got, err
}

// bucketCheck is what every bucket of a key is checked against, from the
// bridge's own model: the row count of the key's day, the sum of its hour
// counts, and the rows of one hour, the first of the key's window that
// has any (its first hour when none has). Every hour before that one is
// empty, so its rows lead the bucket.
type bucketCheck struct {
	rows int
	hour *flowrec.Batch
}

// expect draws the check of k. No row of the other hours is drawn.
func (b *Bridge) expect(k core.FlowKey) (bucketCheck, error) {
	counts, err := b.model.HourFlows(k)
	if err != nil {
		return bucketCheck{}, err
	}
	first, rows := -1, 0
	for i, n := range counts {
		if first < 0 && n > 0 {
			first = i
		}
		rows += n
	}
	from, _ := k.Hours()
	hour, err := b.model.HourBatch(k, from+max(first, 0))
	if err != nil {
		return bucketCheck{}, err
	}
	return bucketCheck{rows: rows, hour: hour}, nil
}

// fetchKey is fetch, also returning how many rows the check drew.
func (b *Bridge) fetchKey(k core.FlowKey) (*flowrec.Batch, int, error) {
	// Draw the check before taking the stream's fetch lock so one key's
	// draw overlaps the wire wait of another. A key the model cannot build
	// is refused here, before any pump is asked.
	want, err := b.expect(k)
	if err != nil {
		return nil, 0, err
	}
	// The hour is this fetch's alone and every attempt compares against
	// it, so it goes back to the pool only when the fetch is over.
	defer want.hour.Release()
	checked := want.hour.Len()
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
			return nil, checked, fmt.Errorf("replay: %s: no pump connected for stream %d", k, id)
		}
		got, err := b.fetchFromStream(st, k, want, deadline, &attempts, lastErr)
		if err == nil {
			return got, checked, nil
		}
		var fe fatalError
		if errors.As(err, &fe) {
			return nil, checked, fmt.Errorf("replay: %s: %w", k, err)
		}
		lastErr = err
		if exhausted(deadline) {
			return nil, checked, fmt.Errorf("replay: %s: giving up after %d attempts in %v: %w", k, attempts, b.cfg.FetchBudget, lastErr)
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
func (b *Bridge) fetchFromStream(st *stream, k core.FlowKey, want bucketCheck, deadline time.Time, attempts *int, lastErr error) (*flowrec.Batch, error) {
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
		if _, err := st.req.Write(encodeRequest(st.gen, k)); err != nil {
			lastErr = fmt.Errorf("%w: %w", errNoAnswer, err)
			if b.routeMoved(k, st.id) {
				return nil, lastErr
			}
			continue
		}
		got, err := b.collect(st, st.gen, k, want.rows, deadline)
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
		if err := sameRows(want.hour, got); err != nil {
			// The bucket's digest held, so it is what the pump drew:
			// the pump's model is not the bridge's, and a retry would
			// draw the same rows.
			got.Release()
			return nil, fatalf("model mismatch in the hour the bridge checks (pump and bridge options differ?): %w", err)
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

// collect gathers one announced bucket off the stream's data socket, whose
// collector delivers the stream's datagrams, flow packets and control
// frames alike, in the order they arrived. The pump serves one request at
// a time, so everything of an earlier generation comes before this
// generation's BEGIN, and the state machine is a straight line: data
// before BEGIN belongs to no accepted bucket and is orphaned
// at once (leftovers of a failed attempt, or rows reordered in front of
// BEGIN, which then cost a retry); the bucket completes on row count; and
// this generation's END with rows still missing is loss, decided on the
// spot. Frames of other generations are skipped, and all but END counted
// as stale: a bucket completes on row count, so its END is usually read
// by the next fetch. The bucket stores the key's columns, the set the
// pump exported; expected is the day's row count in the bridge's model:
// it sizes the bucket, and a BEGIN frame announcing anything else is
// fatal. Each flow datagram is decoded once, straight into the bucket's
// columns; a datagram that fails to decode adds no row and is counted in
// DecodeErrors, so its bucket comes up short at END. A complete bucket
// whose digest is not the one BEGIN announced was damaged or misfiled on
// the way, and the attempt fails. The attempt timeout, the one wait left,
// is truncated to the fetch deadline so the last attempt cannot overrun
// the budget. An attempt that fails (loss, overrun, timeout, digest)
// releases its bucket to the pool, where the next export batch or checked
// hour picks the columns up; a completed one, once its hour is checked,
// passes to the caller, which reduces it and drops it without releasing
// it. That is also why the bucket is allocated at its exact size and not
// drawn from the pool: a pooled batch handed over would leave the pool for
// good, with whatever capacity it happened to have.
func (b *Bridge) collect(st *stream, gen uint32, k core.FlowKey, expected int, deadline time.Time) (_ *flowrec.Batch, err error) {
	timeout := b.cfg.AttemptTimeout
	if remaining := time.Until(deadline); remaining < timeout {
		timeout = max(remaining, 10*time.Millisecond)
	}
	st.timer.Reset(timeout)
	defer st.timer.Stop()
	out := flowrec.NewProjected(expected, k.Columns())
	defer func() {
		if err != nil {
			out.Release()
		}
	}()
	begun := false    // BEGIN seen, announcing the expected rows
	var digest uint32 // the digest BEGIN announced
	for !begun || out.Len() < expected {
		var pkt *collector.Datagram
		var ok bool
		select {
		case pkt, ok = <-st.col.Tagged():
			if !ok {
				return nil, fatalf("collector closed")
			}
		case <-st.timer.C:
			if begun {
				st.lostRows.Add(int64(expected - out.Len()))
			}
			return nil, fmt.Errorf("%w: timed out after %v with %d of %d rows", errNoAnswer, timeout, out.Len(), expected)
		}
		if !pkt.Control {
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
		f, perr := parseCtrl(pkt.Data)
		pkt.Release()
		if perr != nil {
			b.badFrames.Add(1)
			continue
		}
		if f.gen != gen || f.key != k {
			if f.typ != frameEnd {
				st.staleFrames.Add(1)
			}
			continue
		}
		switch f.typ {
		case frameBegin:
			if f.rows != expected {
				return nil, fatalf("pump announced %d rows, the bridge's model has %d (options mismatch between pump and bridge?)", f.rows, expected)
			}
			begun, digest = true, f.digest
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
	if got := out.Digest(); got != digest {
		return nil, fmt.Errorf("bucket digest %#08x, BEGIN announced %#08x", got, digest)
	}
	return out, nil
}

// sameRows compares the checked hour with the bucket's leading rows,
// column by column, over the columns both store: the key's set, which the
// hour and the bucket share. NetFlow v9 and IPFIX carry every column
// exactly, so every bit must match.
func sameRows(hour, got *flowrec.Batch) error {
	if hour.Len() > got.Len() || hour.Columns() != got.Columns() {
		return fmt.Errorf("%d rows of %s off the wire, %d rows of %s in the checked hour", got.Len(), got.Columns(), hour.Len(), hour.Columns())
	}
	for _, err := range []error{
		sameCol("StartNs", hour.StartNs, got.StartNs),
		sameCol("EndNs", hour.EndNs, got.EndNs),
		sameCol("SrcIP", hour.SrcIP, got.SrcIP),
		sameCol("DstIP", hour.DstIP, got.DstIP),
		sameCol("SrcPort", hour.SrcPort, got.SrcPort),
		sameCol("DstPort", hour.DstPort, got.DstPort),
		sameCol("Proto", hour.Proto, got.Proto),
		sameCol("Bytes", hour.Bytes, got.Bytes),
		sameCol("Packets", hour.Packets, got.Packets),
		sameCol("SrcAS", hour.SrcAS, got.SrcAS),
		sameCol("DstAS", hour.DstAS, got.DstAS),
		sameCol("InIf", hour.InIf, got.InIf),
		sameCol("OutIf", hour.OutIf, got.OutIf),
		sameCol("Dir", hour.Dir, got.Dir),
		sameCol("TCPFlags", hour.TCPFlags, got.TCPFlags),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// sameCol reports the first row whose wire value differs from the
// model's (none for a column neither batch stores). got may be longer
// than want; its leading rows are compared.
func sameCol[T comparable](col string, want, got []T) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d column %s: wire %v != model %v", i, col, got[i], want[i])
		}
	}
	return nil
}
