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
// (IPFIX observation domain, NetFlow v9 source ID, v5 engine ID), so
// all pumps share one bridge socket and the bridge demuxes their
// interleaved export per stream (see internal/replay). The Cluster
// supervisor runs each pump on a goroutine of its own, wires every stream
// to the bridge, and aggregates the per-shard accounting.
//
// A crashed pump is restarted with jittered capped-exponential backoff
// up to MaxRestarts; a pump that exhausts the budget is declared dead
// and its vantage points are re-partitioned over the surviving shards —
// the bridge re-routes affected fetches mid-retry, each with a fresh
// request generation so anything still in flight from the dead
// assignment is discarded as stale. Restart, crash and rebalance history
// is surfaced in Stats (per-shard HealthEvents, cluster RebalanceEvents).
//
// Spec.Chaos splices the deterministic fault harness of
// internal/faultinject into the topology: a seeded relay on the
// pump → bridge data path (drop/duplicate/reorder/delay/corrupt,
// scheduled stalls) plus scheduled permanent pump kills that drive the
// give-up → re-partition path reproducibly.
//
// The bridge verifies every bucket bit-for-bit against its reference
// model regardless of which pump served it, so an engine drawing from a
// cluster produces output byte-identical to the in-memory engine —
// `lockdown cluster -shards 4` versus `lockdown all` — even across
// injected loss and a mid-run shard death, which the race-enabled
// golden tests in this package pin.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
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

// Defaults for Spec.
const (
	DefaultShards      = 4
	DefaultMaxRestarts = 3
)

// Spec configures a sharded replay cluster.
type Spec struct {
	// Shards is the number of pumps (DefaultShards if zero). NetFlow v5
	// carries only 8 bits of stream identity, so v5 clusters are capped
	// at collector.MaxV5Stream+1 shards.
	Shards int
	// Format is the wire format every pump exports.
	Format collector.Format
	// Options build the model on both sides; pumps and bridge must
	// agree or verification fails.
	Options core.Options
	// Partition overrides the initial shard of individual vantage
	// points. Unnamed vantage points keep the default partition: the
	// paper's vantage points (synth.AllVantagePoints) round-robin over
	// the shards in order, so every shard owns whole vantage points and
	// all keys of one vantage point route to one pump. The live
	// partition is dynamic: a shard that dies past its restart budget
	// has its vantage points reassigned to surviving shards.
	Partition map[synth.VantagePoint]int
	// MaxRestarts bounds how often one shard is restarted before it is
	// declared dead and re-partitioned away (DefaultMaxRestarts if
	// zero).
	MaxRestarts int
	// BridgeListen is the bridge's UDP listen address ("127.0.0.1:0"
	// if empty).
	BridgeListen string
	// AttemptTimeout and FetchBudget tune the bridge's retry policy
	// (replay defaults if zero). The budget alone ends a fetch, and it
	// covers pump-restart and re-partition windows: a fetch hitting a
	// dead pump keeps re-requesting — and re-routing — until the
	// supervisor has revived or replaced the shard or the budget runs
	// out.
	AttemptTimeout time.Duration
	FetchBudget    time.Duration
	// AllowPartial serves explicitly-accounted empty batches for keys
	// whose retry budget ran out instead of failing the run; see
	// replay.Config.AllowPartial.
	AllowPartial bool
	// Chaos injects the deterministic fault schedule: a seeded relay on
	// the pump → bridge data path plus scheduled pump kills and stalls
	// (see internal/faultinject). Nil runs clean.
	Chaos *faultinject.Spec
}

func (s Spec) shards() int {
	if s.Shards <= 0 {
		return DefaultShards
	}
	return s.Shards
}

func (s Spec) maxRestarts() int {
	if s.MaxRestarts <= 0 {
		return DefaultMaxRestarts
	}
	return s.MaxRestarts
}

// Validate rejects specs the wire or the partition cannot express. New
// calls it; a command line calls it first, to refuse the spec as a usage
// error before anything runs.
func (s Spec) Validate() error {
	n := s.shards()
	if s.Format == collector.FormatNetflowV5 && n > collector.MaxV5Stream+1 {
		return fmt.Errorf("cluster: %d shards do not fit NetFlow v5's 8-bit engine ID (max %d)", n, collector.MaxV5Stream+1)
	}
	for vp, shard := range s.Partition {
		if shard < 0 || shard >= n {
			return fmt.Errorf("cluster: partition maps %s to shard %d, outside 0..%d", vp, shard, n-1)
		}
	}
	if s.AttemptTimeout < 0 || s.FetchBudget < 0 {
		return fmt.Errorf("cluster: timeouts must not be negative")
	}
	if s.MaxRestarts < 0 {
		return fmt.Errorf("cluster: the restart budget must not be negative")
	}
	if s.Chaos != nil {
		if m := s.Chaos.MaxShard(); m >= n {
			return fmt.Errorf("cluster: chaos spec schedules an event for shard %d, outside 0..%d", m, n-1)
		}
	}
	return nil
}

// partition returns the initial vantage-point→shard map: the round-robin
// default overlaid with the spec's explicit entries.
func (s Spec) partition() map[synth.VantagePoint]int {
	n := s.shards()
	part := make(map[synth.VantagePoint]int)
	for i, vp := range synth.AllVantagePoints() {
		part[vp] = i % n
	}
	for vp, shard := range s.Partition {
		part[vp] = shard
	}
	return part
}

// HealthEvent is one entry of a shard's supervision history.
type HealthEvent struct {
	Time   time.Time
	Kind   string // "launch", "crash", "restart", "restart-failed", "reconnect-failed", "gave-up"
	Detail string
}

// RebalanceEvent records one dynamic re-partition: the dead shard and
// where each of its vantage points moved.
type RebalanceEvent struct {
	Time   time.Time
	From   int // the shard whose vantage points were reassigned
	Moved  map[synth.VantagePoint]int
	Reason string
}

// ShardStatus is one shard's health snapshot.
type ShardStatus struct {
	Shard    int
	Stream   uint32
	Addr     string // pump control address ("" until the shard is up)
	Healthy  bool
	Dead     bool // restart budget exhausted; vantage points re-partitioned away
	Restarts int
	// History is the shard's supervision log (most recent last, capped).
	History []HealthEvent
	// Pump carries the counters of the shard's current pump.
	Pump replay.PumpStats
}

// Stats aggregates what a cluster observed: the bridge totals, the
// per-stream demux accounting, each shard's health and history, the
// rebalance log, and the chaos relay's fault counters when a fault
// schedule is active.
type Stats struct {
	Bridge     replay.Stats
	Streams    map[uint32]replay.Stats
	Shards     []ShardStatus
	Rebalances []RebalanceEvent
	Chaos      *faultinject.RelayStats
}

// historyCap bounds each shard's retained health history; a
// crash-looping shard keeps its most recent events.
const historyCap = 64

// shard is the supervisor's handle on one pump: the pump it runs now
// and its health.
type shard struct {
	id int

	mu       sync.Mutex
	pump     *replay.Pump // nil until the shard's first launch
	healthy  bool
	dead     bool
	restarts int
	history  []HealthEvent
}

// note appends a supervision event; callers hold sh.mu.
func (sh *shard) note(kind, detail string) {
	if len(sh.history) >= historyCap {
		sh.history = sh.history[1:]
	}
	sh.history = append(sh.history, HealthEvent{Time: time.Now(), Kind: kind, Detail: detail})
}

func (sh *shard) status() ShardStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := ShardStatus{
		Shard:    sh.id,
		Stream:   uint32(sh.id),
		Healthy:  sh.healthy,
		Dead:     sh.dead,
		Restarts: sh.restarts,
		History:  append([]HealthEvent(nil), sh.history...),
	}
	if sh.pump != nil {
		st.Addr = sh.pump.CtrlAddr()
		st.Pump = sh.pump.Stats()
	}
	return st
}

// Cluster is a running sharded replay topology: one bridge, N pumps,
// and the supervisor goroutines keeping the pumps alive (and, past the
// restart budget, re-partitioning their work away). Create it with New,
// launch with Start, and hand Source() to core.NewEngineWithSource.
type Cluster struct {
	spec   Spec
	bridge *replay.Bridge
	relay  *faultinject.Relay // chaos wire injection (nil without Chaos)
	shards []*shard
	epoch  time.Time // Start time; anchors the chaos schedule

	// Supervisor instruments (standalone when Spec.Options.Obs is nil)
	// and the run tracer; restarts, give-ups and rebalances show up both
	// here and as per-shard HealthEvents / RebalanceEvents in Stats.
	tracer      *obs.Tracer
	restartsC   *obs.Counter
	deadShardsC *obs.Counter
	rebalancesC *obs.Counter

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
		restartsC: reg.Counter("lockdown_cluster_restarts_total",
			"Shard pumps restarted by the supervisor."),
		deadShardsC: reg.Counter("lockdown_cluster_dead_shards_total",
			"Shards declared dead after exhausting their restart budget."),
		rebalancesC: reg.Counter("lockdown_cluster_rebalances_total",
			"Dynamic re-partitions away from dead shards."),
	}
	reg.GaugeFunc("lockdown_cluster_healthy_shards",
		"Shards currently marked healthy by the supervisor.",
		func() float64 {
			n := 0
			for _, sh := range c.shards {
				sh.mu.Lock()
				if sh.healthy {
					n++
				}
				sh.mu.Unlock()
			}
			return float64(n)
		})
	bridge, err := replay.NewBridge(replay.Config{
		Format:         spec.Format,
		ListenAddr:     spec.BridgeListen,
		Options:        spec.Options,
		Route:          c.routeKey,
		AttemptTimeout: spec.AttemptTimeout,
		FetchBudget:    spec.FetchBudget,
		AllowPartial:   spec.AllowPartial,
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
// point outside the partition at its reference build, before routing.)
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
// start fails the whole cluster. Start also anchors the chaos schedule's
// t+0.
func (c *Cluster) Start(ctx context.Context) error {
	c.ctx, c.cancel = context.WithCancel(ctx)
	c.epoch = time.Now()
	if c.relay != nil {
		c.relay.SetEpoch(c.epoch)
	}
	c.bridge.Start(c.ctx)
	for _, sh := range c.shards {
		pump, err := c.bringUp(sh, "launch")
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

// bringUp launches the shard's next pump, exporting to the cluster's data
// address under the shard's stream identity, makes it the current one
// (noted in the history as kind) and arms its chaos kill. Kills are
// permanent by design: every pump is armed, so a killed shard dies again
// until its restart budget burns out and the re-partition path runs.
func (c *Cluster) bringUp(sh *shard, kind string) (*replay.Pump, error) {
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
	sh.healthy = true
	sh.note(kind, pump.CtrlAddr())
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

// restartBackoff is the supervisor's delay before restart attempt n:
// capped exponential — a crash-looping pump must not busy-spin the
// supervisor, but a one-off crash should recover well inside the
// bridge's retry budget — with ±20% jitter so N pumps felled by one
// event do not re-dial in lockstep. The shift is capped before the min
// so a large restart budget cannot overflow the duration into a
// negative (= zero) backoff.
func restartBackoff(restarts int) time.Duration {
	base := min(100*time.Millisecond<<min(restarts, 5), 2*time.Second)
	return base - base/5 + time.Duration(rand.Int63n(int64(2*base/5)))
}

// noteCrash moves a shard into the crashed state and charges its
// restart budget; it returns the restart count.
func (c *Cluster) noteCrash(sh *shard, detail string) int {
	sh.mu.Lock()
	sh.healthy = false
	sh.restarts++
	sh.note("crash", detail)
	restarts := sh.restarts
	sh.mu.Unlock()
	if c.tracer != nil {
		c.tracer.Instant("shard-crash", "cluster",
			map[string]any{"shard": sh.id, "detail": detail, "restarts": restarts})
	}
	return restarts
}

// giveUp declares a shard dead after its restart budget is exhausted
// and re-partitions its vantage points over the surviving shards.
func (c *Cluster) giveUp(sh *shard) {
	sh.mu.Lock()
	sh.dead = true
	sh.healthy = false
	sh.note("gave-up", fmt.Sprintf("restart budget (%d) exhausted", c.spec.maxRestarts()))
	sh.mu.Unlock()
	c.deadShardsC.Add(1)
	if c.tracer != nil {
		c.tracer.Instant("shard-gave-up", "cluster",
			map[string]any{"shard": sh.id, "budget": c.spec.maxRestarts()})
	}
	c.repartition(sh, "restart budget exhausted")
}

// repartition reassigns a dead shard's vantage points round-robin over
// the surviving shards (in sorted vantage-point order, so the outcome
// is deterministic) and records the rebalance. In-flight fetches pick
// the new route up on their next retry attempt with a fresh request
// generation; late data from the dead assignment is discarded as stale
// by the bridge's generation check, and verification keeps the output
// byte-identical no matter which pump ends up serving a key.
func (c *Cluster) repartition(from *shard, reason string) {
	var targets []int
	for _, sh := range c.shards {
		if sh == from {
			continue
		}
		sh.mu.Lock()
		dead := sh.dead
		sh.mu.Unlock()
		if !dead {
			targets = append(targets, sh.id)
		}
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
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
		Reason: reason,
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
	c.rebalancesC.Add(1)
	if c.tracer != nil {
		c.tracer.Instant("rebalance", "cluster",
			map[string]any{"from": from.id, "moved": len(moved), "reason": reason})
	}
}

// supervise owns one shard's lifecycle, starting with the pump Start
// launched: it runs the pump's serve loop, and when the pump dies while the
// cluster is live (a crash, a chaos kill, a socket failure) it launches
// the next one after a jittered capped-exponential backoff. Each restart
// re-dials the shard's stream (the bridge keeps the stream's generation
// counter and accounting across the reconnect), so in-flight fetches
// recover on their next retry attempt; beyond MaxRestarts the shard is
// declared dead and its vantage points are re-partitioned away.
func (c *Cluster) supervise(sh *shard, pump *replay.Pump) {
	defer c.wg.Done()
	for {
		pump.Run(c.ctx)
		if c.ctx.Err() != nil {
			return // shutdown; Close closes the pump
		}
		restarts := c.noteCrash(sh, "pump stopped")
		pump.Close() // the serve loop is gone; this releases its sockets
		if restarts > c.spec.maxRestarts() {
			c.giveUp(sh)
			return
		}
		select {
		case <-time.After(restartBackoff(restarts)):
		case <-c.ctx.Done():
			return
		}
		next, err := c.bringUp(sh, "restart")
		if err != nil {
			// A failed launch (a socket that would not bind) counts
			// against the restart budget: the closed pump's Run returns
			// at once on the next pass and charges another.
			sh.mu.Lock()
			sh.note("restart-failed", err.Error())
			sh.mu.Unlock()
			continue
		}
		pump = next
		if c.ctx.Err() != nil {
			// Close raced the restart: its sweep may have passed this
			// shard already, so nothing else would close the fresh pump's
			// sockets.
			pump.Close()
			return
		}
		c.restartsC.Add(1)
		if c.tracer != nil {
			c.tracer.Instant("shard-restart", "cluster", map[string]any{"shard": sh.id})
		}
		if err := c.bridge.ConnectStream(uint32(sh.id), pump.CtrlAddr()); err != nil {
			sh.mu.Lock()
			sh.note("reconnect-failed", err.Error())
			sh.mu.Unlock()
		}
	}
}

// Stats returns the cluster's aggregated accounting.
func (c *Cluster) Stats() Stats {
	snap := c.bridge.Snapshot()
	s := Stats{Bridge: snap.Total, Streams: snap.Streams}
	for _, sh := range c.shards {
		s.Shards = append(s.Shards, sh.status())
	}
	c.partMu.Lock()
	s.Rebalances = append([]RebalanceEvent(nil), c.rebalances...)
	c.partMu.Unlock()
	if c.relay != nil {
		rs := c.relay.Stats()
		s.Chaos = &rs
	}
	return s
}

// DegradedKeys lists the component-hours the bridge served as
// explicitly-missing empty batches (AllowPartial mode); empty for a
// healthy run.
func (c *Cluster) DegradedKeys() []string { return c.bridge.DegradedKeys() }

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
			sh.healthy = false
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
