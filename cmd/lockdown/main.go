// Command lockdown regenerates the tables and figures of "The Lockdown
// Effect" (IMC 2020) from the synthetic vantage-point models.
//
// Usage:
//
//	lockdown list                 list all experiments
//	lockdown run <id> [flags]     run one experiment (e.g. fig1, tab1, fig11a)
//	lockdown all [flags]          run every experiment on the parallel engine
//	lockdown doc [flags]          emit the generated EXPERIMENTS.md to stdout
//	lockdown replay [flags]       run every experiment over live wire export
//	lockdown cluster [flags]      run every experiment over N sharded pumps
//	lockdown pump [flags]         serve one cluster shard (spawned by cluster)
//	lockdown scenario validate <file>  check a declarative scenario file
//	lockdown scenario run <file> [flags]  run the suite on a scenario model
//	lockdown scenario doc         emit the scenario schema reference
//
// A scenario is a YAML file (see docs/SCENARIOS.md and the gallery under
// examples/scenarios/) declaring vantage points, membership and class
// mixes, and an event timeline — lockdown waves, holidays, flash events,
// link outages, a return to office — that compiles down to the built-in
// synthetic traffic model. The shipped default scenario restates the
// paper's timeline and `scenario run` on it is byte-identical to `all`;
// a scenario's declared seed/flow_scale are defaults that explicit
// -seed/-scale flags override.
//
// Flags for run/all/doc/replay/cluster:
//
//	-csv          emit CSV instead of aligned text tables (run/all/replay/cluster)
//	-json         emit JSON instead of text tables (run/all/replay/cluster)
//	-scale f      flow sampling density for flow-level experiments (default
//	              0.5; 0 selects it; not finite or negative: usage error, exit 2)
//	-seed n       generator seed override
//	-parallel n   global worker budget for all/doc/replay/cluster (default
//	              GOMAXPROCS). One budget governs both scheduling levels:
//	              experiments run concurrently on it, and the sharded scans
//	              inside each experiment borrow whatever is spare, so total
//	              concurrency never exceeds n (see internal/core.ShardedScan)
//	-scan-chunk n grid items per intra-experiment scan chunk (0 = per-scan
//	              default: 24 for hour grids, 1 for vantage-point/day grids).
//	              Output is byte-identical at any chunk size
//	-cpuprofile f write a pprof CPU profile of the command to f
//	-memprofile f write a pprof heap profile (after the run) to f
//	-metrics-addr a  serve live observability over HTTP at a for the life
//	              of the command: /metrics is the Prometheus text
//	              exposition of every lockdown_* instrument (engine, scan,
//	              cache, flowstore, bridge, collector, cluster, chaos),
//	              /debug/pprof/ the standard live profiler. ':0' picks a
//	              free port and prints it to stderr
//	-trace f      write a Chrome trace_event JSON trace of the run to f
//	              (open in Perfetto or chrome://tracing): spans for every
//	              experiment and scan chunk, cache spill/fault/regen,
//	              bridge fetches and retries, pump restarts, rebalances
//	              and injected faults. The per-experiment span durations
//	              are the same clock as the _runtime/wall-ms metrics
//	-cache-budget n  resident flow-batch cache cap (bytes, K/M/G suffixes;
//	              0 = unlimited, every batch stays resident). Default 16M
//	              for run/all/doc/scenario run, whose flow source is the
//	              in-process generator: colder hours are dropped and
//	              generated again if touched again. Default 0 for
//	              replay/cluster, where a re-touch is a wire round trip.
//	              Output is byte-identical at any budget
//	-cache-dir d  keep evicted flow batches as mmap-backed columnar spans
//	              in files under d and fault them back in, instead of
//	              dropping them (see internal/flowstore). Default: none,
//	              no file is written
//	-format f     replay/cluster wire format: v5, v9 or ipfix (default ipfix)
//	-addr a       replay/cluster bridge UDP listen address (default 127.0.0.1:0)
//	-pps f        replay/cluster pump pacing, datagrams per second (0 = unlimited)
//	-unverified   replay only: capture mode, serve wire rows without failing on
//	              verification mismatches (accounted in the bridge stats)
//	-attempt-timeout d  replay/cluster: per-attempt bucket collection timeout
//	              (default 2s)
//	-max-attempts n  replay/cluster: attempts per bucket (default 5)
//	-fetch-budget d  replay/cluster: wall-clock retry budget per bucket; when
//	              set it replaces the flat attempt-timeout × max-attempts cap
//	              and alone decides when the bridge gives up
//	-allow-partial  replay/cluster: serve explicitly-accounted empty batches
//	              for buckets whose retry budget ran out instead of failing
//	              the run; the degraded component-hours are stamped on stderr
//	-shards n     cluster only: number of pump shards (default 4)
//	-subprocess   cluster only: run each pump as its own `lockdown pump` process
//	-max-restarts n  cluster only: restarts per shard before it is declared
//	              dead and its vantage points re-partition away (default 3)
//	-chaos spec   cluster only: deterministic fault injection, e.g.
//	              'drop=0.05,kill=shard1@t+2s,seed=7' (drop/dup/reorder/
//	              corrupt probabilities, delay, kill/stall schedules; see
//	              internal/faultinject). Same seed, same faults; output
//	              stays byte-identical to `all` while faults are recoverable
//
// `replay` runs the same suite as `all`, but every flow batch travels a
// real UDP wire first: one pump per vantage point exports the synthetic
// component-hours as NetFlow v5/v9 or IPFIX packets on its own stream and
// the bridge decodes, demuxes and verifies them bit-for-bit before the
// engine consumes them (see internal/replay). The results are
// byte-identical to `all`; the wire and loss accounting, in total and per
// stream, is printed to stderr.
//
// `cluster` is `replay` distributed the way the paper's measurement
// actually was: the vantage points are partitioned over N pumps — each
// with its own wire stream identity (IPFIX observation domain, NetFlow
// v9 source ID, v5 engine ID) — and the bridge demuxes their
// interleaved export per stream, with N buckets in flight concurrently
// (see internal/cluster). Pumps run as in-process goroutines or (with
// -subprocess) separate `lockdown pump` processes; either way a crashed
// pump restarts under jittered backoff, and a pump that exhausts
// -max-restarts is declared dead and its vantage points re-partition
// over the survivors. -chaos injects a seeded, reproducible fault
// schedule (datagram faults on the wire, scheduled pump kills) to
// exercise exactly those paths. The results remain byte-identical to
// `all`; per-shard wire accounting, health history and rebalance events
// are printed to stderr.
//
// `all` prints a bench-style timing summary and the dataset-cache stats to
// stderr after the results. The profile flags exist so performance work on
// the flow path can be driven by pprof evidence instead of guesswork:
//
//	lockdown all -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lockdown/internal/cluster"
	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/flowstore"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/scenario"
	"lockdown/internal/synth"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  lockdown list
  lockdown run <experiment-id> [-csv|-json] [-scale f] [-seed n] [-cache-budget n] [-cache-dir d] [-scan-chunk n] [-cpuprofile f] [-memprofile f] [-metrics-addr a] [-trace f]
  lockdown all [-csv|-json] [-scale f] [-seed n] [-parallel n] [-cache-budget n] [-cache-dir d] [-scan-chunk n] [-cpuprofile f] [-memprofile f] [-metrics-addr a] [-trace f]
  lockdown doc [-scale f] [-seed n] [-parallel n] [-cache-budget n] [-cache-dir d] [-scan-chunk n] [-cpuprofile f] [-memprofile f] [-metrics-addr a] [-trace f]
  lockdown replay [-format v5|v9|ipfix] [-addr host:port] [-pps f] [-unverified] [-attempt-timeout d] [-max-attempts n] [-fetch-budget d] [-allow-partial] [-csv|-json] [-scale f] [-seed n] [-parallel n] [-cache-budget n] [-cache-dir d] [-scan-chunk n] [-cpuprofile f] [-memprofile f] [-metrics-addr a] [-trace f]
  lockdown cluster [-shards n] [-subprocess] [-max-restarts n] [-chaos spec] [-format v5|v9|ipfix] [-addr host:port] [-pps f] [-attempt-timeout d] [-max-attempts n] [-fetch-budget d] [-allow-partial] [-csv|-json] [-scale f] [-seed n] [-parallel n] [-cache-budget n] [-cache-dir d] [-scan-chunk n] [-cpuprofile f] [-memprofile f] [-metrics-addr a] [-trace f]
  lockdown pump -data host:port [-format v5|v9|ipfix] [-ctrl host:port] [-shard i/n] [-scale f] [-seed n] [-pps f]
  lockdown scenario validate <file.yaml>
  lockdown scenario run <file.yaml> [same flags as all]
  lockdown scenario doc
  lockdown cache stat <dir>

experiments:
`)
	for _, e := range core.All() {
		fmt.Fprintf(os.Stderr, "  %-18s %-22s %s\n", e.ID, e.Artifact, e.Title)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first interrupt has cancelled ctx, stop capturing SIGINT
	// so a second Ctrl-C terminates the process immediately instead of
	// waiting for in-flight experiments to finish.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lockdown:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line refused before any work was done; main
// exits 2 for it and 1 for a run that failed.
type usageError string

func (e usageError) Error() string { return string(e) }

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, e := range core.All() {
			fmt.Printf("%-18s %-22s %s\n", e.ID, e.Artifact, e.Title)
		}
		return nil
	case "pump":
		// The exporter half of a subprocess cluster; it has its own flag
		// shape and speaks the READY handshake on stdout, so it bypasses
		// the shared flag set below.
		return cluster.PumpMain(ctx, args[1:], os.Stdin, os.Stdout)
	case "scenario":
		if len(args) < 2 {
			usage()
			return fmt.Errorf("scenario needs a subcommand: validate, run or doc")
		}
		switch args[1] {
		case "doc":
			fmt.Print(scenario.SchemaDoc())
			return nil
		case "validate":
			if len(args) != 3 {
				return fmt.Errorf("usage: lockdown scenario validate <file.yaml>")
			}
			s, err := scenario.Load(args[2])
			if err != nil {
				return err
			}
			shape := "variant model"
			if s.Identity() {
				shape = "identity (compiles to the built-in model)"
			}
			fmt.Printf("scenario %q: %d vantage points, %d events, %s\n",
				s.Name, len(s.VPs), len(s.Events), shape)
			return nil
		case "run":
			if len(args) < 3 {
				return fmt.Errorf("usage: lockdown scenario run <file.yaml> [flags]")
			}
			// Re-enter the shared flag machinery as the synthetic
			// scenario-run command, with the file where run's id goes.
			return run(ctx, append([]string{"scenario-run", args[2]}, args[3:]...))
		default:
			return fmt.Errorf("unknown scenario subcommand %q (want validate, run or doc)", args[1])
		}
	case "cache":
		// Operator tooling for a spill directory a killed run left behind
		// under -cache-dir: verify every sealed span file span by span.
		if len(args) != 3 || args[1] != "stat" {
			return fmt.Errorf("usage: lockdown cache stat <dir>")
		}
		st, err := flowstore.StatDir(args[2])
		if err != nil {
			return err
		}
		fmt.Printf("span files: %d sealed (%.1f MB, %d spans, %d damaged spans), %d unsealed or damaged\n",
			st.Files, float64(st.Bytes)/(1<<20), st.Spans, st.SpansBad, st.FilesBad)
		for _, f := range st.BadFiles {
			fmt.Printf("bad: %s\n", f)
		}
		if len(st.BadFiles) > 0 {
			return fmt.Errorf("%d bad files or spans", len(st.BadFiles))
		}
		return nil
	case "run", "all", "doc", "replay", "cluster", "scenario-run":
		fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
		csvOut := fs.Bool("csv", false, "emit CSV instead of text tables")
		jsonOut := fs.Bool("json", false, "emit JSON instead of text tables")
		scale := fs.Float64("scale", 0.5, "flow sampling density for flow-level experiments")
		seed := fs.Int64("seed", 0, "generator seed override (0 = default)")
		parallel := fs.Int("parallel", 0, "worker count for all/doc/replay/cluster (0 = GOMAXPROCS)")
		cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file")
		metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (':0' picks a free port; empty = off)")
		tracePath := fs.String("trace", "", "write a Chrome trace_event JSON trace of the run to this file (empty = off)")
		// The modes that generate in process bound their memory by
		// default: a re-touched hour costs one more generation. Over the
		// wire it costs a round trip, so those modes keep everything.
		defaultBudget := "16M"
		if args[0] == "replay" || args[0] == "cluster" {
			defaultBudget = "0"
		}
		cacheBudget := fs.String("cache-budget", defaultBudget, "resident flow-batch cache budget (bytes, K/M/G suffixes; 0 = unlimited); evicted batches are dropped and generated again on their next access")
		cacheDir := fs.String("cache-dir", "", "spill evicted flow batches to span files under this directory instead of dropping them (empty = no disk tier)")
		scanChunk := fs.Int("scan-chunk", 0, "grid items per intra-experiment scan chunk (0 = per-scan default; never changes results)")
		formatName := fs.String("format", "ipfix", "replay/cluster wire format: v5, v9 or ipfix")
		addr := fs.String("addr", "127.0.0.1:0", "replay/cluster bridge UDP listen address")
		pps := fs.Float64("pps", 0, "pump pacing in datagrams per second (0 = unlimited)")
		unverified := fs.Bool("unverified", false, "replay capture mode: serve wire rows without failing verification")
		attemptTimeout := fs.Duration("attempt-timeout", 0, "replay/cluster per-attempt bucket timeout (0 = default)")
		maxAttempts := fs.Int("max-attempts", 0, "replay/cluster attempts per bucket (0 = default)")
		fetchBudget := fs.Duration("fetch-budget", 0, "replay/cluster wall-clock retry budget per bucket (0 = attempt-timeout × max-attempts)")
		allowPartial := fs.Bool("allow-partial", false, "replay/cluster: degrade to accounted empty batches instead of failing when a bucket's retries run out")
		shards := fs.Int("shards", cluster.DefaultShards, "cluster pump shard count")
		subprocess := fs.Bool("subprocess", false, "cluster: run each pump as its own process")
		maxRestarts := fs.Int("max-restarts", 0, "cluster restarts per shard before give-up and re-partition (0 = default)")
		chaosSpec := fs.String("chaos", "", "cluster fault-injection spec, e.g. 'drop=0.05,kill=shard1@t+2s,seed=7'")

		rest := args[1:]
		var id string
		if args[0] == "run" || args[0] == "scenario-run" {
			if len(args) < 2 {
				usage()
				return fmt.Errorf("run needs an experiment id")
			}
			// For scenario-run, id carries the scenario file path.
			id = args[1]
			rest = args[2:]
		}
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *csvOut && *jsonOut {
			return fmt.Errorf("-csv and -json are mutually exclusive")
		}
		// 0 selects the default density (core.Options.FlowScale); NaN fails
		// every comparison the generator makes and would sample garbage.
		if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale < 0 {
			return usageError(fmt.Sprintf("-scale must be a finite, non-negative number, got %g", *scale))
		}
		// The flag set is shared across subcommands; reject flags that do
		// not apply to the one being run instead of silently ignoring them.
		switch args[0] {
		case "run":
			if *parallel != 0 {
				return fmt.Errorf("-parallel only applies to all/doc/replay/cluster")
			}
		case "doc":
			if *csvOut || *jsonOut {
				return fmt.Errorf("doc always emits markdown; -csv/-json only apply to run/all/replay/cluster")
			}
		}
		if args[0] != "replay" && args[0] != "cluster" {
			if *formatName != "ipfix" || *addr != "127.0.0.1:0" || *pps != 0 {
				return fmt.Errorf("-format/-addr/-pps only apply to replay/cluster")
			}
		}
		if args[0] != "replay" && *unverified {
			return fmt.Errorf("-unverified only applies to replay")
		}
		if args[0] != "replay" && args[0] != "cluster" {
			if *attemptTimeout != 0 || *maxAttempts != 0 || *fetchBudget != 0 || *allowPartial {
				return fmt.Errorf("-attempt-timeout/-max-attempts/-fetch-budget/-allow-partial only apply to replay/cluster")
			}
		}
		if args[0] != "cluster" && (*shards != cluster.DefaultShards || *subprocess || *maxRestarts != 0 || *chaosSpec != "") {
			return fmt.Errorf("-shards/-subprocess/-max-restarts/-chaos only apply to cluster")
		}
		if *attemptTimeout < 0 || *fetchBudget < 0 {
			return fmt.Errorf("-attempt-timeout and -fetch-budget must not be negative")
		}
		if *maxAttempts < 0 || *maxRestarts < 0 {
			return fmt.Errorf("-max-attempts and -max-restarts must not be negative")
		}
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
			defer pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintln(os.Stderr, "lockdown: memprofile:", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialise the live heap before snapshotting
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "lockdown: memprofile:", err)
				}
			}()
		}
		// Observability backends live for the whole command: the metrics
		// server keeps serving scrapes while experiments run, and the
		// trace file is finalised (the JSON array closed) on the way out,
		// after the run's last span has ended.
		var reg *obs.Registry
		if *metricsAddr != "" {
			reg = obs.NewRegistry()
			srv, err := obs.Serve(*metricsAddr, reg)
			if err != nil {
				return fmt.Errorf("-metrics-addr: %w", err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (live pprof under /debug/pprof/)\n", srv.Addr())
		}
		var tracer *obs.Tracer
		if *tracePath != "" {
			tr, err := obs.Create(*tracePath)
			if err != nil {
				return fmt.Errorf("-trace: %w", err)
			}
			tracer = tr
			defer func() {
				if err := tracer.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "lockdown: trace:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "trace: %d events written to %s\n", tracer.Events(), *tracePath)
			}()
		}
		budget, err := parseSize(*cacheBudget)
		if err != nil {
			return fmt.Errorf("-cache-budget: %w", err)
		}
		opts := core.Options{FlowScale: *scale, Seed: *seed, CacheBudget: budget, CacheDir: *cacheDir, ScanChunk: *scanChunk, Obs: reg, Tracer: tracer}
		if args[0] == "scenario-run" {
			s, err := scenario.Load(id)
			if err != nil {
				return err
			}
			// The scenario's declared seed/flow_scale are defaults only;
			// a flag the user actually set on the command line wins.
			explicit := map[string]bool{}
			fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			if s.FlowScale != 0 && !explicit["scale"] {
				opts.FlowScale = s.FlowScale
			}
			if s.Seed != 0 && !explicit["seed"] {
				opts.Seed = s.Seed
			}
			declared := map[synth.VantagePoint]bool{}
			for _, vp := range s.VPs {
				declared[vp] = true
			}
			opts.Model = func(vp synth.VantagePoint) synth.Config {
				if declared[vp] {
					return s.Config(vp)
				}
				// Vantage points the scenario does not declare keep the
				// untouched built-in model.
				return synth.DefaultConfig(vp)
			}
			fmt.Fprintf(os.Stderr, "scenario: %q from %s\n", s.Name, s.File())
		}

		tuning := retryTuning{
			attemptTimeout: *attemptTimeout,
			maxAttempts:    *maxAttempts,
			fetchBudget:    *fetchBudget,
			allowPartial:   *allowPartial,
		}
		if args[0] == "replay" {
			return runReplay(ctx, opts, *formatName, *addr, *pps, *unverified, tuning, *parallel, *csvOut, *jsonOut)
		}
		if args[0] == "cluster" {
			return runCluster(ctx, opts, *formatName, *addr, *pps, *shards, *subprocess, *maxRestarts, *chaosSpec, tuning, *parallel, *csvOut, *jsonOut)
		}
		engine := core.NewEngine(opts)
		defer engine.Data().Close()

		switch args[0] {
		case "run":
			res, err := engine.Run(ctx, id)
			if err != nil {
				return err
			}
			return emit(res, *csvOut, *jsonOut)
		case "all", "scenario-run":
			results, err := engine.RunAll(ctx, *parallel)
			if err != nil {
				return err
			}
			return emitSuite(results, engine.Data(), tracer, *csvOut, *jsonOut)
		default: // doc
			results, err := engine.RunAll(ctx, *parallel)
			if err != nil {
				return err
			}
			return report.WriteExperimentsDoc(os.Stdout, results)
		}
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// retryTuning carries the shared bridge retry/degradation flags of the
// replay and cluster subcommands.
type retryTuning struct {
	attemptTimeout time.Duration
	maxAttempts    int
	fetchBudget    time.Duration
	allowPartial   bool
}

// runReplay executes the full experiment suite over live loopback wire
// export: one replay.Pump per vantage point exports every requested
// component-hour as real NetFlow/IPFIX packets on its own stream, and a
// replay.Bridge feeds the decoded, bit-for-bit verified batches into the
// engine as its FlowSource (the topology is replay.Loopback). The emitted
// results are byte-identical to `lockdown all` at the same options; the
// wire and loss accounting goes to stderr.
func runReplay(ctx context.Context, opts core.Options, formatName, addr string, pps float64, unverified bool, tuning retryTuning, parallel int, asCSV, asJSON bool) error {
	format, err := collector.ParseFormat(formatName)
	if err != nil {
		return err
	}
	lb, err := replay.NewLoopback(replay.Config{
		Format:         format,
		ListenAddr:     addr,
		Options:        opts,
		Unverified:     unverified,
		AttemptTimeout: tuning.attemptTimeout,
		MaxAttempts:    tuning.maxAttempts,
		FetchBudget:    tuning.fetchBudget,
		AllowPartial:   tuning.allowPartial,
	}, pps)
	if err != nil {
		return err
	}
	defer lb.Close()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	lb.Start(runCtx)
	fmt.Fprintf(os.Stderr, "replay: %v bridge on %s, %d pump streams (one per vantage point)\n",
		format, lb.Bridge.DataAddr(), len(lb.Pumps))

	engine := core.NewEngineWithSource(opts, lb.Bridge)
	defer engine.Data().Close()
	results, err := engine.RunAll(runCtx, parallel)
	if err != nil {
		return err
	}
	if err := emitSuite(results, engine.Data(), opts.Tracer, asCSV, asJSON); err != nil {
		return err
	}
	return emitEvents(opts.Tracer, replayEvents(lb.Bridge.Snapshot(), lb.PumpStats()))
}

// replayEvents converts a replay run's accounting into its summary events:
// the bridge totals, one indented detail per vantage-point stream, and the
// pumps' counters summed over all streams.
func replayEvents(snap replay.Snapshot, ps replay.PumpStats) []obs.Event {
	bridge := bridgeEvent(snap.Total)
	bridge.Fields = append(bridge.Fields, obs.Fi("unverified", snap.Total.Unverified))
	events := []obs.Event{bridge}
	for i, vp := range synth.AllVantagePoints() {
		events = append(events, obs.Event{Cat: "bridge", Sub: true,
			Msg:    fmt.Sprintf("stream %d (%s)", i, vp),
			Fields: streamFields(snap.Streams[uint32(i)])})
	}
	return append(events, obs.Event{Cat: "bridge", Msg: "wire pump", Fields: []obs.Field{
		obs.Fi("requests", ps.Requests),
		obs.Fi("rows exported", ps.RowsSent),
		obs.Fi("nacks", ps.Nacks),
	}})
}

// bridgeEvent is the aggregate wire accounting line replay and cluster
// share.
func bridgeEvent(bs replay.Stats) obs.Event {
	return obs.Event{Cat: "bridge", Msg: "wire bridge", Fields: []obs.Field{
		obs.Fi("buckets", bs.Keys),
		obs.Fi("rows verified", bs.Rows),
		obs.Fi("retries", bs.Retries),
		obs.Fi("rows lost", bs.LostRows),
		obs.Fi("orphan rows", bs.OrphanRows),
		obs.Fi("decode errors", bs.DecodeErrors),
	}}
}

// streamFields is one stream's share of it: a replay stream's detail line,
// a cluster shard's.
func streamFields(ss replay.Stats) []obs.Field {
	return []obs.Field{
		obs.Fi("buckets", ss.Keys),
		obs.Fi("rows", ss.Rows),
		obs.Fi("retries", ss.Retries),
		obs.Fi("rows lost", ss.LostRows),
	}
}

// runCluster executes the full experiment suite over a sharded pump
// fleet: the vantage points are partitioned over N pumps (in-process
// goroutines, or supervised `lockdown pump` subprocesses), each pump
// exports with its own wire stream identity, and one bridge demuxes,
// verifies and serves the interleaved export to the engine. The emitted
// results are byte-identical to `lockdown all` at the same options;
// per-shard wire accounting goes to stderr.
func runCluster(ctx context.Context, opts core.Options, formatName, addr string, pps float64, shards int, subprocess bool, maxRestarts int, chaosSpec string, tuning retryTuning, parallel int, asCSV, asJSON bool) error {
	format, err := collector.ParseFormat(formatName)
	if err != nil {
		return err
	}
	var chaos *faultinject.Spec
	if chaosSpec != "" {
		parsed, err := faultinject.ParseSpec(chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		chaos = &parsed
		// A fault schedule stretches fetches across restart and
		// re-partition windows; without an explicit budget, give the
		// bridge one wide enough to ride out a full give-up sequence.
		if tuning.fetchBudget == 0 {
			tuning.fetchBudget = 60 * time.Second
		}
	}
	c, err := cluster.New(cluster.Spec{
		Shards:         shards,
		Format:         format,
		Options:        opts,
		Rate:           pps,
		Subprocess:     subprocess,
		MaxRestarts:    maxRestarts,
		BridgeListen:   addr,
		AttemptTimeout: tuning.attemptTimeout,
		MaxAttempts:    tuning.maxAttempts,
		FetchBudget:    tuning.fetchBudget,
		AllowPartial:   tuning.allowPartial,
		Chaos:          chaos,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := c.Start(runCtx); err != nil {
		return err
	}
	mode := "in-process"
	if subprocess {
		mode = "subprocess"
	}
	fmt.Fprintf(os.Stderr, "cluster: %v bridge on %s, %d %s pump shards\n",
		format, c.Bridge().DataAddr(), shards, mode)
	if chaos != nil {
		fmt.Fprintf(os.Stderr, "cluster: chaos active: %s\n", chaos)
	}

	engine := core.NewEngineWithSource(opts, c.Source())
	defer engine.Data().Close()
	results, err := engine.RunAll(runCtx, parallel)
	if err != nil {
		return err
	}
	if err := emitSuite(results, engine.Data(), opts.Tracer, asCSV, asJSON); err != nil {
		return err
	}
	return emitEvents(opts.Tracer, clusterEvents(c.Stats()))
}

// clusterEvents converts a cluster stats snapshot into the per-run
// summary events: aggregate bridge accounting, one indented detail per
// shard, every rebalance, and the chaos relay totals when fault
// injection was active.
func clusterEvents(stats cluster.Stats) []obs.Event {
	events := []obs.Event{bridgeEvent(stats.Bridge)}
	for _, sh := range stats.Shards {
		health := "healthy"
		sev := obs.Info
		switch {
		case sh.Dead:
			health, sev = "DEAD", obs.Warn
		case !sh.Healthy:
			health, sev = "DOWN", obs.Warn
		}
		events = append(events, obs.Event{Cat: "cluster", Sub: true, Severity: sev,
			Msg:    fmt.Sprintf("shard %d (%s, %d restarts)", sh.Shard, health, sh.Restarts),
			Fields: streamFields(stats.Streams[sh.Stream])})
	}
	for _, ev := range stats.Rebalances {
		events = append(events, obs.Event{Cat: "cluster", Sub: true, Severity: obs.Warn,
			Msg: "rebalance", Fields: []obs.Field{
				obs.F("", fmt.Sprintf("shard %d (%s)", ev.From, ev.Reason)),
				obs.Fi("vantage points moved", int64(len(ev.Moved))),
			}})
	}
	if cs := stats.Chaos; cs != nil {
		events = append(events, obs.Event{Cat: "chaos", Sub: true, Severity: obs.Warn,
			Msg: "chaos relay", Fields: []obs.Field{
				obs.Fi("datagrams", cs.Total.Seen),
				obs.Fi("dropped", cs.Total.Dropped),
				obs.Fi("duplicated", cs.Total.Duplicated),
				obs.Fi("reordered", cs.Total.Reordered),
				obs.Fi("corrupted", cs.Total.Corrupted),
				obs.Fi("stalled", cs.Total.Stalled),
			}})
	}
	return events
}

// emitSuite writes a full-suite run the way `all` and `replay` share it:
// the results to stdout (text, CSV or JSON), then the timing summary and
// dataset-cache stats to stderr — keeping the two commands' output
// byte-identical by construction. The stderr accounting travels as
// structured obs Events through one renderer (and into the trace when
// one is active), so the terminal summary, the trace file and the
// /metrics exposition are three views of the same counters.
func emitSuite(results []*core.Result, data *core.Dataset, tracer *obs.Tracer, asCSV, asJSON bool) error {
	if asJSON {
		if err := report.WriteJSONAll(os.Stdout, results); err != nil {
			return err
		}
	} else {
		for _, res := range results {
			if err := emit(res, asCSV, false); err != nil {
				return err
			}
		}
	}
	if err := report.WriteTimings(os.Stderr, results); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr)
	return emitEvents(tracer, suiteEvents(data))
}

// suiteEvents converts the dataset's cache accounting and degradation
// state into the run summary events every suite command shares.
func suiteEvents(data *core.Dataset) []obs.Event {
	stats := data.Stats()
	events := []obs.Event{{Cat: "cache", Msg: "dataset cache", Fields: []obs.Field{
		obs.Fi("entries", int64(stats.Entries)),
		obs.Fi("hits", stats.Hits),
		obs.Fi("misses", stats.Misses),
	}}}
	// Only budgeted runs carry the tier event; an unbudgeted run keeps
	// every batch resident and has nothing to say here.
	if stats.Budget > 0 {
		events = append(events, obs.Event{Cat: "cache", Msg: "flow-batch tiers", Fields: []obs.Field{
			obs.Fi("spills", stats.Spills),
			obs.Fi("faults", stats.Faults),
			obs.Fi("regens", stats.Regens),
			obs.Ff("MB resident", float64(stats.ResidentBytes)/(1<<20)),
			obs.Ff("MB spilled", float64(stats.SpilledBytes)/(1<<20)),
			obs.Fi("evictions", stats.Evictions),
		}})
	}
	// A degraded (allow-partial) run is stamped explicitly so its output
	// is never mistaken for a complete one: every component-hour served
	// as an empty stand-in batch is named.
	if degraded := data.DegradedKeys(); len(degraded) > 0 {
		events = append(events, obs.Event{Cat: "degraded", Severity: obs.Degraded,
			Msg: "DEGRADED RUN", Fields: []obs.Field{
				obs.Fi("component-hours missing (served as empty batches):", int64(len(degraded))),
			}})
		for _, k := range degraded {
			events = append(events, obs.Event{Cat: "degraded", Severity: obs.Degraded, Sub: true, Msg: k})
		}
	}
	return events
}

// emitEvents renders run events to stderr and records each one as an
// instant in the trace, so the two sinks cannot disagree.
func emitEvents(tracer *obs.Tracer, events []obs.Event) error {
	for _, ev := range events {
		tracer.Emit(ev)
	}
	return report.WriteEvents(os.Stderr, events)
}

func emit(res *core.Result, asCSV, asJSON bool) error {
	switch {
	case asJSON:
		return report.WriteJSON(os.Stdout, res)
	case asCSV:
		return report.WriteCSV(os.Stdout, res)
	default:
		return report.WriteText(os.Stdout, res)
	}
}

// parseSize parses a byte size with an optional K/M/G suffix (plus an
// ignored B/iB tail), e.g. "64M", "2GiB", "4096". -cache-budget uses it.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	if u == "" {
		return 0, nil
	}
	u = strings.TrimSuffix(u, "IB")
	u = strings.TrimSuffix(u, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, u[:len(u)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}
