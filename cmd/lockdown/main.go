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
//	lockdown cluster [flags]      the same, over N supervised pump shards
//	lockdown scenario validate <file>  check a declarative scenario file
//	lockdown scenario run <file> [flags]  run the suite on a scenario model
//	lockdown scenario doc         emit the scenario schema reference
//
// A scenario is a YAML file (see docs/SCENARIOS.md and the gallery under
// examples/scenarios/) declaring membership and class mixes of the fixed
// vantage points, and an event timeline — lockdown waves, holidays, flash
// events, link outages, a return to office — that compiles down to the
// built-in synthetic traffic model. The shipped default scenario restates the
// paper's timeline and `scenario run` on it is byte-identical to `all`;
// a scenario's declared seed/flow_scale are defaults that explicit
// -seed/-scale flags override.
//
// Flags, grouped by the modes that register them (the table is `modes`
// below). A flag given to a mode that does not register it is refused like
// any unknown flag; every refused command line is a usage error, exit 2,
// and nothing runs.
//
// run, all, doc, replay, cluster, scenario run:
//
//	-scale f      flow sampling density for flow-level experiments (default
//	              0.5; 0 selects it; not finite or negative: usage error)
//	-seed n       generator seed override
//	-cache-budget n  no effect; a size (bytes, K/M/G suffixes), checked and
//	              ignored: a suite run holds no flow batch, since every
//	              experiment reads each day as a reduction taken at the
//	              day's one draw. Accepted because bench/'s spill-p1 passes
//	              it, removed with ROADMAP item 4(a)
//	-cache-dir d  no effect; accepted because bench/'s spill-p1 passes it,
//	              removed with ROADMAP item 4(a). No file is written
//	-cpuprofile f write a pprof CPU profile of the command to f
//	-memprofile f write a pprof heap profile (after the run) to f
//	-metrics-addr a  serve live observability over HTTP at a for the life
//	              of the command: /metrics is the Prometheus text
//	              exposition of every lockdown_* instrument (engine, scan,
//	              cache, bridge, collector, cluster, chaos),
//	              /debug/pprof/ the standard live profiler. ':0' picks a
//	              free port and prints it to stderr
//	-trace f      write a Chrome trace_event JSON trace of the run to f
//	              (open in Perfetto or chrome://tracing): spans for every
//	              experiment, scan chunk and reduction,
//	              bridge fetches and retries, shard deaths, rebalances
//	              and injected faults. The per-experiment span durations
//	              are the same clock as the _runtime/wall-ms metrics
//
// All of those but doc, which always emits markdown:
//
//	-csv          emit CSV instead of aligned text tables
//	-json         emit JSON instead of text tables
//
// All of those but run:
//
//	-parallel n   global worker budget (default GOMAXPROCS). One budget
//	              governs both scheduling levels: experiments run
//	              concurrently on it, and the pass that takes each
//	              experiment's declared reads borrows whatever is spare,
//	              so total concurrency never exceeds n (see
//	              internal/core/scan.go)
//
// replay, cluster:
//
//	-format f     wire format: v9 or ipfix (default ipfix)
//
// cluster:
//
//	-shards n     number of pump shards (default 4; replay: always 7)
//	-chaos spec   deterministic fault injection, e.g.
//	              'drop=0.05,kill=shard1@t+2s,seed=7' (drop/dup
//	              probabilities, a kill schedule; see internal/faultinject).
//	              Same seed, same faults; output stays byte-identical to
//	              `all`. A killed pump stays dead, and its vantage points
//	              re-partition over the other shards
//
// `replay` and `cluster` run the same suite as `all`, but every flow batch
// travels a real UDP wire first, the way the paper's measurement did: the
// vantage points are partitioned over supervised pumps, each exporting its
// flow batches as NetFlow v9 or IPFIX packets to a bridge socket of its
// own, and one bridge decodes each stream's datagrams and checks each
// bucket — its digest, its row count and one hour against its own
// model — before the engine consumes it (see internal/cluster and
// internal/replay). They are one code path: `replay` is the cluster at one
// shard per vantage point, `cluster` adds the shard count and fault
// injection. The results are byte-identical to `all`, or the run fails:
// a bucket no pump serves within its fetch budget ends it. The wire
// and loss accounting — bridge totals, one line per shard naming its
// vantage points, rebalances, chaos and pump totals — goes to stderr.
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
	"slices"
	"strconv"
	"strings"

	"lockdown/internal/cluster"
	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/scenario"
	"lockdown/internal/synth"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage:\n  lockdown list")
	for _, m := range modes {
		fmt.Fprintln(os.Stderr, " ", m.synopsis())
	}
	fmt.Fprint(os.Stderr, `  lockdown scenario validate <file.yaml>
  lockdown scenario doc

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
		return usageError("missing command")
	}
	switch args[0] {
	case "list":
		if len(args) > 1 {
			return usageError(fmt.Sprintf("list takes no arguments, got %q", args[1]))
		}
		for _, e := range core.All() {
			fmt.Printf("%-18s %-22s %s\n", e.ID, e.Artifact, e.Title)
		}
		return nil
	case "scenario":
		if len(args) < 2 {
			usage()
			return usageError("scenario needs a subcommand: validate, run or doc")
		}
		switch args[1] {
		case "doc":
			if len(args) > 2 {
				return usageError(fmt.Sprintf("scenario doc takes no arguments, got %q", args[2]))
			}
			fmt.Print(scenario.SchemaDoc())
			return nil
		case "validate":
			if len(args) != 3 {
				return usageError("usage: lockdown scenario validate <file.yaml>")
			}
			s, err := scenario.Load(args[2])
			if err != nil {
				return err
			}
			shape := "variant model"
			if s.Identity() {
				shape = "identity (compiles to the built-in model)"
			}
			fmt.Printf("scenario %q: %d events, %s\n", s.Name, len(s.Events), shape)
			return nil
		case "run":
			return runMode(ctx, "scenario run", args[2:])
		default:
			return usageError(fmt.Sprintf("unknown scenario subcommand %q (want validate, run or doc)", args[1]))
		}
	case "run", "all", "doc", "replay", "cluster":
		return runMode(ctx, args[0], args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return usageError(fmt.Sprintf("unknown command %q", args[0]))
	}
}

// mode is one of the commands that run experiments. They share one
// options struct, one set of flag definitions and one set-up; what tells
// them apart is all here.
type mode struct {
	name  string   // as typed after "lockdown"
	arg   string   // the positional argument it takes before its flags ("" = none)
	flags []string // the flags it registers; the flag package refuses the rest
	// shards is a wire mode's default pump shard count; 0 means the flows
	// come from the in-process generator.
	shards int
	run    func(context.Context, *options) error
}

var (
	engineFlags = []string{"scale", "seed", "cache-budget", "cache-dir", "cpuprofile", "memprofile", "metrics-addr", "trace"}
	suiteFlags  = slices.Concat(engineFlags, []string{"csv", "json", "parallel"})
	wireFlags   = slices.Concat(suiteFlags, []string{"format"})
)

var modes = []mode{
	{name: "run", arg: "<experiment-id>", run: runOne, flags: slices.Concat(engineFlags, []string{"csv", "json"})},
	{name: "all", run: runAll, flags: suiteFlags},
	{name: "doc", run: runDoc, flags: slices.Concat(engineFlags, []string{"parallel"})},
	{name: "scenario run", arg: "<file.yaml>", run: runScenario, flags: suiteFlags},
	{name: "replay", run: runWire, shards: len(synth.AllVantagePoints()), flags: wireFlags},
	{name: "cluster", run: runWire, shards: cluster.DefaultShards,
		flags: slices.Concat(wireFlags, []string{"shards", "chaos"})},
}

// options is a mode's parsed command line. A flag the mode does not
// register keeps its default here.
type options struct {
	arg string          // the mode's positional argument
	set map[string]bool // the flags given on the command line

	csv, json   bool
	parallel    int
	cpuProfile  string
	memProfile  string
	metricsAddr string
	tracePath   string
	core        core.Options // the engine flags bind here; runMode adds Obs and Tracer
	wire        cluster.Spec // the wire and fleet flags bind here; runWire adds Options
}

// flagSet returns the mode's flag set over o: every flag is defined once,
// here, and the mode's set takes the ones it lists.
func (m mode) flagSet(o *options) *flag.FlagSet {
	all := flag.NewFlagSet(m.name, flag.ContinueOnError)
	all.BoolVar(&o.csv, "csv", false, "emit CSV instead of text tables")
	all.BoolVar(&o.json, "json", false, "emit JSON instead of text tables")
	all.Float64Var(&o.core.FlowScale, "scale", 0.5, "flow sampling `density` for flow-level experiments")
	all.Int64Var(&o.core.Seed, "seed", 0, "generator seed override (0 = default)")
	all.IntVar(&o.parallel, "parallel", 0, "global worker budget (0 = GOMAXPROCS)")
	all.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this `file`")
	all.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this `file`")
	all.StringVar(&o.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this `address` (':0' picks a free port; empty = off)")
	all.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON trace of the run to this `file` (empty = off)")
	// Read by bench/ until ROADMAP item 4(a).
	all.Func("cache-budget", "no effect: a size in `bytes` (K/M/G suffixes), checked and ignored; accepted because bench/'s spill-p1 passes it, removed with ROADMAP item 4(a)", func(s string) (err error) {
		o.core.CacheBudget, err = parseSize(s)
		return err
	})
	// Read by bench/ until ROADMAP item 4(a).
	all.StringVar(&o.core.CacheDir, "cache-dir", "", "no effect: a `directory`, ignored; accepted because bench/'s spill-p1 passes it, removed with ROADMAP item 4(a)")
	o.wire.Format = collector.FormatIPFIX
	all.Func("format", "wire format `name`: v9 or ipfix (default ipfix)", func(s string) (err error) {
		o.wire.Format, err = collector.ParseFormat(s)
		return err
	})
	all.IntVar(&o.wire.Shards, "shards", m.shards, "pump shard count")
	all.Func("chaos", "fault-injection `spec`, e.g. 'drop=0.05,kill=shard1@t+2s,seed=7'", func(s string) error {
		faults, err := faultinject.ParseSpec(s)
		if err == nil {
			o.wire.Chaos = &faults
		}
		return err
	})

	fs := flag.NewFlagSet(m.name, flag.ContinueOnError)
	for _, name := range m.flags {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	return fs
}

// synopsis is the mode's line of usage(), generated from its flag set.
func (m mode) synopsis() string {
	line := "lockdown " + m.name
	if m.arg != "" {
		line += " " + m.arg
	}
	m.flagSet(new(options)).VisitAll(func(f *flag.Flag) {
		if value, _ := flag.UnquoteUsage(f); value != "" {
			line += fmt.Sprintf(" [-%s %s]", f.Name, value)
		} else {
			line += fmt.Sprintf(" [-%s]", f.Name)
		}
	})
	return line
}

// check refuses what the flag package cannot. Flags the mode did not
// register hold defaults that pass.
func (o *options) check(m mode) error {
	switch scale := o.core.FlowScale; {
	case o.csv && o.json:
		return errors.New("-csv and -json are mutually exclusive")
	// 0 selects the default density (core.Options.FlowScale); NaN fails
	// every comparison the generator makes and would sample garbage.
	case math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0:
		return fmt.Errorf("-scale must be a finite, non-negative number, got %g", scale)
	case m.shards > 0 && o.wire.Shards < 1:
		return fmt.Errorf("-shards must be at least 1, got %d", o.wire.Shards)
	// A value below 1 reads as "use the default" where it is consumed,
	// and the run would go ahead with it.
	case o.parallel < 0:
		return errors.New("-parallel must not be negative")
	}
	if m.shards > 0 {
		// A chaos event for a shard that does not exist. The spec's
		// messages name no flag, so say which command was refused.
		if err := o.wire.Validate(); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
	}
	return nil
}

// runMode parses and checks the named mode's command line, brings up what
// every mode shares — profiles, the metrics server, the tracer — and runs
// the mode.
func runMode(ctx context.Context, name string, args []string) error {
	m := modes[slices.IndexFunc(modes, func(m mode) bool { return m.name == name })]
	o := &options{set: map[string]bool{}}
	fs := m.flagSet(o)
	if m.arg != "" {
		if len(args) == 0 {
			usage()
			return usageError(fmt.Sprintf("%s needs %s", m.name, m.arg))
		}
		if strings.HasPrefix(args[0], "-") {
			// A flag where the argument belongs: -h still prints the
			// mode's flags, anything else is refused.
			if errors.Is(fs.Parse(args), flag.ErrHelp) {
				return nil
			}
			return usageError(fmt.Sprintf("%s needs %s before its flags", m.name, m.arg))
		}
		o.arg, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError(err.Error())
	}
	// The flag package stops at the first word that is not a flag; that
	// word and every flag after it would otherwise be ignored.
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("%s: unexpected argument %q", m.name, fs.Arg(0)))
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.check(m); err != nil {
		return usageError(err.Error())
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
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
	if o.metricsAddr != "" {
		o.core.Obs = obs.NewRegistry()
		srv, err := obs.Serve(o.metricsAddr, o.core.Obs)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (live pprof under /debug/pprof/)\n", srv.Addr())
	}
	if o.tracePath != "" {
		tracer, err := obs.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		o.core.Tracer = tracer
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "lockdown: trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace: %d events written to %s\n", tracer.Events(), o.tracePath)
		}()
	}
	return m.run(ctx, o)
}

func runOne(ctx context.Context, o *options) error {
	res, err := core.NewEngine(o.core).Run(ctx, o.arg)
	if err != nil {
		return err
	}
	return emit(res, o.csv, o.json)
}

func runAll(ctx context.Context, o *options) error {
	return runSuite(ctx, core.NewEngine(o.core), o)
}

func runDoc(ctx context.Context, o *options) error {
	results, err := core.NewEngine(o.core).RunAll(ctx, o.parallel)
	if err != nil {
		return err
	}
	return report.WriteExperimentsDoc(os.Stdout, results)
}

// runScenario is runAll on the model the scenario file o.arg compiles to.
func runScenario(ctx context.Context, o *options) error {
	s, err := scenario.Load(o.arg)
	if err != nil {
		return err
	}
	// The scenario's declared seed/flow_scale are defaults only; a flag
	// the user actually set on the command line wins.
	if s.FlowScale != 0 && !o.set["scale"] {
		o.core.FlowScale = s.FlowScale
	}
	if s.Seed != 0 && !o.set["seed"] {
		o.core.Seed = s.Seed
	}
	o.core.Model = s.Config
	fmt.Fprintf(os.Stderr, "scenario: %q from %s\n", s.Name, s.File())
	return runAll(ctx, o)
}

// runWire is runAll with the engine's flows drawn from a cluster of
// o.wire.Shards pumps behind one bridge (see the package comment); its
// accounting follows the suite's on stderr.
func runWire(ctx context.Context, o *options) error {
	spec := o.wire
	spec.Options = o.core
	c, err := cluster.New(spec)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Start(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wire: %v bridge, %d pump shards\n", spec.Format, spec.Shards)
	if spec.Chaos != nil && spec.Chaos.Active() {
		fmt.Fprintf(os.Stderr, "wire: chaos active: %s\n", spec.Chaos)
	}
	if err := runSuite(ctx, core.NewEngineWithSource(o.core, c.Source()), o); err != nil {
		return err
	}
	// A pump counts a bucket's rows after its send returns, and the bridge
	// may complete the bucket before that: read the stats once every pump
	// has stopped.
	c.Close()
	return emitEvents(o.core.Tracer, wireEvents(c.Stats(), c.Partition()))
}

// wireEvents converts a wire run's accounting into its summary events: the
// bridge totals, one indented detail per shard naming the vantage points
// it owns under part (the live partition), every rebalance, the pumps'
// chaos totals when fault injection was active, and the pumps' counters
// summed over all shards.
func wireEvents(stats cluster.Stats, part map[synth.VantagePoint]int) []obs.Event {
	bs := stats.Bridge
	events := []obs.Event{{Cat: "bridge", Msg: "wire bridge", Fields: []obs.Field{
		obs.Fi("buckets", bs.Keys),
		obs.Fi("rows verified", bs.Rows),
		obs.Fi("retries", bs.Retries),
		obs.Fi("rows lost", bs.LostRows),
		obs.Fi("orphan rows", bs.OrphanRows),
		obs.Fi("decode errors", bs.DecodeErrors),
	}}}
	var pumps replay.PumpStats
	for _, sh := range stats.Shards {
		var owns []string
		for _, vp := range synth.AllVantagePoints() {
			if part[vp] == sh.Shard {
				owns = append(owns, string(vp))
			}
		}
		state := "live"
		if sh.Dead {
			state = "DEAD"
		}
		ss := stats.Streams[sh.Stream]
		events = append(events, obs.Event{Cat: "cluster", Sub: true,
			Msg: fmt.Sprintf("shard %d [%s] (%s)", sh.Shard, strings.Join(owns, " "), state),
			Fields: []obs.Field{
				obs.Fi("buckets", ss.Keys),
				obs.Fi("rows", ss.Rows),
				obs.Fi("retries", ss.Retries),
				obs.Fi("rows lost", ss.LostRows),
			}})
		pumps.Requests += sh.Pump.Requests
		pumps.RowsSent += sh.Pump.RowsSent
		pumps.Nacks += sh.Pump.Nacks
	}
	for _, ev := range stats.Rebalances {
		events = append(events, obs.Event{Cat: "cluster", Sub: true,
			Msg: "rebalance", Fields: []obs.Field{
				obs.F("", fmt.Sprintf("shard %d (%s)", ev.From, ev.Reason)),
				obs.Fi("vantage points moved", int64(len(ev.Moved))),
			}})
	}
	if cs := stats.Chaos; cs != nil {
		events = append(events, obs.Event{Cat: "chaos", Sub: true,
			Msg: "chaos", Fields: []obs.Field{
				obs.Fi("datagrams", cs.Seen),
				obs.Fi("dropped", cs.Dropped),
				obs.Fi("duplicated", cs.Duplicated),
			}})
	}
	return append(events, obs.Event{Cat: "bridge", Msg: "wire pump", Fields: []obs.Field{
		obs.Fi("requests", pumps.Requests),
		obs.Fi("rows exported", pumps.RowsSent),
		obs.Fi("nacks", pumps.Nacks),
	}})
}

// runSuite runs every experiment on engine and writes the run the way
// `all`, `scenario run`, `replay` and `cluster` share it: the results to
// stdout (text, CSV or JSON), then the timing summary and dataset-cache
// stats to stderr — keeping the commands' output byte-identical by
// construction. The stderr accounting travels as structured obs Events
// through one renderer (and into the trace when one is active), so the
// terminal summary, the trace file and the /metrics exposition are three
// views of the same counters.
func runSuite(ctx context.Context, engine *core.Engine, o *options) error {
	results, err := engine.RunAll(ctx, o.parallel)
	if err != nil {
		return err
	}
	if o.json {
		if err := report.WriteJSONAll(os.Stdout, results); err != nil {
			return err
		}
	} else {
		for _, res := range results {
			if err := emit(res, o.csv, false); err != nil {
				return err
			}
		}
	}
	if err := report.WriteTimings(os.Stderr, results); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr)
	return emitEvents(o.core.Tracer, suiteEvents(engine.Data().Stats()))
}

// suiteEvents converts the dataset's cache accounting into the run
// summary events every suite command shares.
func suiteEvents(stats core.CacheStats) []obs.Event {
	return []obs.Event{{Cat: "cache", Msg: "dataset cache", Fields: []obs.Field{
		obs.Fi("hits", stats.Hits),
		obs.Fi("misses", stats.Misses),
	}}}
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
// ignored B/iB tail), e.g. "64M", "2GiB", "4096". -cache-budget checks
// its value with it.
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
	// A product past int64 would wrap.
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}
