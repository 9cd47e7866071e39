// Package cluster runs the wire-replay harness over several exporter
// pumps, reproducing the multi-vantage-point topology of "The Lockdown
// Effect" (IMC 2020): the paper's observations come from an ISP, IXPs,
// an EDU network and a mobile operator measured simultaneously, and here
// each vantage point's flow export likewise comes from a pump of its
// own. It is the one place a bridge-plus-pumps topology is built:
// `lockdown replay` is a cluster of one shard per vantage point,
// `lockdown cluster -shards n` the same thing at another shard count.
//
// A Spec partitions the vantage points over N shards. Each shard is one
// replay.Pump carrying the shard index as its wire stream identity
// (IPFIX observation domain or NetFlow v9 source ID), so
// all pumps share one bridge socket and the bridge demuxes their
// interleaved export per stream (see internal/replay). The Cluster
// supervisor runs each pump on a goroutine of its own, wires every stream
// to the bridge, and aggregates the per-shard accounting.
//
// A pump that stops while the cluster is live never comes back: its
// shard is dead, and its vantage points are re-partitioned over the
// surviving shards at once. The bridge re-routes affected fetches
// mid-retry, each with a fresh request generation, so anything still in
// flight from the dead assignment is discarded as stale. Deaths and
// rebalances are surfaced in Stats (ShardStatus.Dead, RebalanceEvents).
//
// Spec.Chaos splices the deterministic fault harness of
// internal/faultinject into the topology: a seeded relay on the
// pump → bridge data path (drop/duplicate) plus scheduled pump kills
// that drive the death → re-partition path reproducibly.
//
// The bridge checks every bucket — its digest, its row count and one hour
// of its own model — regardless of which pump served it, and every pump
// draws the model the bridge checks against, so an engine drawing from a
// cluster produces output byte-identical to the in-memory engine —
// `lockdown cluster -shards 4` versus `lockdown all` — even across
// injected loss and a mid-run shard death, which the race-enabled
// golden tests in this package pin.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/synth"
)

// DefaultShards is Spec.Shards when zero.
const DefaultShards = 4

// Spec configures a sharded replay cluster.
type Spec struct {
	// Shards is the number of pumps (DefaultShards if zero). Shard i
	// exports as stream i, which both formats carry in 32 bits, so no
	// shard count is out of the wire's reach.
	Shards int
	// Format is the wire format every pump exports.
	Format collector.Format
	// Options build the model on both sides; pumps and bridge must
	// agree or the bridge's model checks fail the fetch.
	Options core.Options
	// AttemptTimeout and FetchBudget tune the bridge's retry policy
	// (replay defaults if zero). The budget alone ends a fetch, and it
	// covers the re-partition window: a fetch hitting a dead pump keeps
	// re-requesting — and re-routing — until the shard's vantage points
	// have moved or the budget runs out, which fails the run.
	AttemptTimeout time.Duration
	FetchBudget    time.Duration
	// Chaos injects the deterministic fault schedule: a seeded relay on
	// the pump → bridge data path plus scheduled pump kills (see
	// internal/faultinject). Nil runs clean.
	Chaos *faultinject.Spec
}

func (s Spec) shards() int {
	if s.Shards <= 0 {
		return DefaultShards
	}
	return s.Shards
}

// Validate rejects specs the wire or the partition cannot express. New
// calls it; a command line calls it first, to refuse the spec as a usage
// error before anything runs.
func (s Spec) Validate() error {
	n := s.shards()
	if s.AttemptTimeout < 0 || s.FetchBudget < 0 {
		return fmt.Errorf("cluster: timeouts must not be negative")
	}
	if s.Chaos != nil {
		if m := s.Chaos.MaxShard(); m >= n {
			return fmt.Errorf("cluster: chaos spec schedules an event for shard %d, outside 0..%d", m, n-1)
		}
	}
	return nil
}

// partition returns the initial vantage-point→shard map: the paper's
// vantage points (synth.AllVantagePoints) round-robin over the shards in
// order, so every shard owns whole vantage points and all keys of one
// vantage point route to one pump. The live partition is dynamic: a
// shard whose pump stops has its vantage points reassigned to surviving
// shards.
func (s Spec) partition() map[synth.VantagePoint]int {
	n := s.shards()
	part := make(map[synth.VantagePoint]int)
	for i, vp := range synth.AllVantagePoints() {
		part[vp] = i % n
	}
	return part
}

// RebalanceEvent records one dynamic re-partition: the dead shard and
// where each of its vantage points moved.
type RebalanceEvent struct {
	Time   time.Time
	From   int // the shard whose vantage points were reassigned
	Moved  map[synth.VantagePoint]int
	Reason string
}

// ShardStatus is one shard's snapshot.
type ShardStatus struct {
	Shard  int
	Stream uint32
	Addr   string // pump control address ("" until the shard is up)
	Dead   bool   // the pump stopped; vantage points re-partitioned away
	// Pump carries the counters of the shard's pump.
	Pump replay.PumpStats
}

// Stats aggregates what a cluster observed: the bridge totals, the
// per-stream demux accounting, each shard's status, the rebalance log,
// and the chaos relay's fault counters when a fault schedule is active.
type Stats struct {
	Bridge     replay.Stats
	Streams    map[uint32]replay.Stats
	Shards     []ShardStatus
	Rebalances []RebalanceEvent
	Chaos      *faultinject.RelayStats
}

// shard is the supervisor's handle on one pump.
type shard struct {
	id int

	mu   sync.Mutex
	pump *replay.Pump // nil until the shard's launch
	dead bool
}

func (sh *shard) status() ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStatus{Shard: sh.id, Stream: uint32(sh.id), Dead: sh.dead}
	if sh.pump != nil {
		st.Addr = sh.pump.CtrlAddr()
		st.Pump = sh.pump.Stats()
	}
	return st
}

// Cluster is a running sharded replay topology: one bridge, N pumps,
// and the supervisor goroutines that run the pumps and re-partition a
// stopped pump's work away. Create it with New, launch with Start, and
// hand Source() to core.NewEngineWithSource.
type Cluster struct {
	spec   Spec
	bridge *replay.Bridge
	relay  *faultinject.Relay // chaos wire injection (nil without Chaos)
	shards []*shard
	epoch  time.Time // Start time; anchors the kill schedule

	// Supervisor instruments (standalone when Spec.Options.Obs is nil)
	// and the run tracer; a death and its rebalance show up both here and
	// as ShardStatus.Dead / RebalanceEvents in Stats.
	tracer      *obs.Tracer
	deadShardsC *obs.Counter

	// The live partition; fetches route through it per attempt, so a
	// rebalance re-targets even fetches already mid-retry.
	partMu     sync.Mutex
	part       map[synth.VantagePoint]int
	rebalances []RebalanceEvent

	timerMu    sync.Mutex
	killTimers []*time.Timer

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New validates the spec and opens the bridge socket (and, with a chaos
// spec, the fault relay in front of it). No pumps run until Start.
func New(spec Spec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reg := spec.Options.Obs
	c := &Cluster{
		spec:   spec,
		part:   spec.partition(),
		tracer: spec.Options.Tracer,
		deadShardsC: reg.Counter("lockdown_cluster_dead_shards_total",
			"Shards declared dead because their pump stopped; each death is one rebalance."),
	}
	bridge, err := replay.NewBridge(replay.Config{
		Format:         spec.Format,
		Options:        spec.Options,
		Route:          c.routeKey,
		AttemptTimeout: spec.AttemptTimeout,
		FetchBudget:    spec.FetchBudget,
	})
	if err != nil {
		return nil, err
	}
	c.bridge = bridge
	if spec.Chaos != nil && spec.Chaos.Active() {
		relay, err := faultinject.NewRelay(*spec.Chaos, spec.Format, bridge.DataAddr())
		if err != nil {
			bridge.Close()
			return nil, err
		}
		c.relay = relay
		relay.Instrument(reg)
		relay.SetTracer(c.tracer)
	}
	for i := 0; i < spec.shards(); i++ {
		c.shards = append(c.shards, &shard{id: i})
	}
	return c, nil
}

// routeKey is the bridge's live route: the current partition under the
// rebalance lock. The bridge calls it before every attempt, so a rebalance
// re-targets in-flight fetches on their next retry. (It refuses a vantage
// point outside the partition when it draws the key's check from its
// model, before routing.)
func (c *Cluster) routeKey(k core.FlowKey) uint32 {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	return uint32(c.part[k.VP])
}

// Partition returns a snapshot of the live vantage-point→shard map.
func (c *Cluster) Partition() map[synth.VantagePoint]int {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	out := make(map[synth.VantagePoint]int, len(c.part))
	for vp, sh := range c.part {
		out[vp] = sh
	}
	return out
}

// Bridge returns the cluster's bridge (stats, stream accounting).
func (c *Cluster) Bridge() *replay.Bridge { return c.bridge }

// Source returns the cluster as a flow source for an engine.
func (c *Cluster) Source() core.FlowSource { return c.bridge }

// dataAddr is where pumps export to: the chaos relay when a fault
// schedule is active, the bridge's collector socket otherwise.
func (c *Cluster) dataAddr() string {
	if c.relay != nil {
		return c.relay.Addr()
	}
	return c.bridge.DataAddr()
}

// Start launches every pump, hands it to its supervisor, connects its
// stream to the bridge and starts the bridge's demux. A shard that cannot
// start fails the whole cluster. Start also anchors the kill schedule's
// t+0.
func (c *Cluster) Start(ctx context.Context) error {
	c.ctx, c.cancel = context.WithCancel(ctx)
	c.epoch = time.Now()
	c.bridge.Start(c.ctx)
	for _, sh := range c.shards {
		pump, err := c.bringUp(sh)
		if err == nil {
			c.wg.Add(1)
			go c.supervise(sh, pump)
			err = c.bridge.ConnectStream(uint32(sh.id), pump.CtrlAddr())
		}
		if err != nil {
			c.Close()
			return fmt.Errorf("cluster: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// bringUp launches the shard's pump, exporting to the cluster's data
// address under the shard's stream identity, and arms its chaos kill.
func (c *Cluster) bringUp(sh *shard) (*replay.Pump, error) {
	pump, err := replay.NewPump(replay.PumpConfig{
		Format:   c.spec.Format,
		DataAddr: c.dataAddr(),
		Stream:   uint32(sh.id),
		Options:  c.spec.Options,
	})
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.pump = pump
	sh.mu.Unlock()
	if c.spec.Chaos != nil {
		if at, ok := c.spec.Chaos.KillFor(sh.id); ok {
			c.timerMu.Lock() // (a time already past fires at once)
			c.killTimers = append(c.killTimers, time.AfterFunc(time.Until(c.epoch.Add(at)), func() { pump.Close() }))
			c.timerMu.Unlock()
		}
	}
	return pump, nil
}

// repartition declares a shard dead, reassigns its vantage points
// round-robin over the surviving shards (in sorted vantage-point order,
// so the outcome is deterministic) and records the rebalance, all under
// the partition lock, so no Stats snapshot sees a dead shard that still
// owns a vantage point. In-flight fetches pick the new route up on their
// next retry attempt with a fresh request generation; late data from the
// dead assignment is discarded as stale by the bridge's generation
// check, and the bucket checks keep the output byte-identical no matter
// which pump ends up serving a key.
func (c *Cluster) repartition(from *shard) {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	from.mu.Lock()
	from.dead = true
	from.mu.Unlock()
	c.deadShardsC.Add(1)
	var targets []int
	for _, sh := range c.shards {
		sh.mu.Lock()
		if !sh.dead {
			targets = append(targets, sh.id)
		}
		sh.mu.Unlock()
	}
	var moved []synth.VantagePoint
	for vp, owner := range c.part {
		if owner == from.id {
			moved = append(moved, vp)
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
	ev := RebalanceEvent{
		Time:   time.Now(),
		From:   from.id,
		Reason: "pump stopped",
		Moved:  make(map[synth.VantagePoint]int, len(moved)),
	}
	if len(targets) == 0 {
		ev.Reason += " (no surviving shard; vantage points stay orphaned)"
	} else {
		for i, vp := range moved {
			to := targets[i%len(targets)]
			c.part[vp] = to
			ev.Moved[vp] = to
		}
	}
	c.rebalances = append(c.rebalances, ev)
	if c.tracer != nil {
		c.tracer.Instant("rebalance", "cluster",
			map[string]any{"from": from.id, "moved": len(moved), "reason": ev.Reason})
	}
}

// supervise runs one shard's pump. A pump's serve loop returns only when
// the cluster shuts down or the pump is closed (a chaos kill), so a pump
// that stops while the cluster is live is gone for good: the shard is
// declared dead and its vantage points are re-partitioned away at once.
func (c *Cluster) supervise(sh *shard, pump *replay.Pump) {
	defer c.wg.Done()
	pump.Run(c.ctx)
	if c.ctx.Err() != nil {
		return // shutdown; Close closes the pump
	}
	pump.Close() // the serve loop is gone; this releases its sockets
	c.repartition(sh)
}

// Stats returns the cluster's aggregated accounting. The shard statuses
// and the rebalance log are read under the partition lock, so they agree.
func (c *Cluster) Stats() Stats {
	snap := c.bridge.Snapshot()
	s := Stats{Bridge: snap.Total, Streams: snap.Streams}
	c.partMu.Lock()
	for _, sh := range c.shards {
		s.Shards = append(s.Shards, sh.status())
	}
	s.Rebalances = append([]RebalanceEvent(nil), c.rebalances...)
	c.partMu.Unlock()
	if c.relay != nil {
		rs := c.relay.Stats()
		s.Chaos = &rs
	}
	return s
}

// Close tears the cluster down: chaos timers stopped, pumps closed, then
// the relay and the bridge. Safe to call more than once.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		if c.cancel != nil {
			c.cancel()
		}
		c.timerMu.Lock()
		for _, t := range c.killTimers {
			t.Stop()
		}
		c.timerMu.Unlock()
		for _, sh := range c.shards {
			sh.mu.Lock()
			if sh.pump != nil { // nil: Start failed before this shard's turn
				sh.pump.Close()
			}
			sh.mu.Unlock()
		}
		c.wg.Wait()
		if c.relay != nil {
			c.relay.Close()
		}
		c.closeErr = c.bridge.Close()
	})
	return c.closeErr
}
