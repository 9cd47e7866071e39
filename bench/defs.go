package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// runSeconds is the default length of the measured window of one run and
// the value BENCHMARK.json passes as -seconds. A run keeps starting
// iterations until the window has passed and minIters have been counted.
const runSeconds = 15

// minIters is the floor of counted iterations per run: with fewer, a
// single noisy second decides the minimum.
const minIters = 7

// hardStopSeconds ends the measured loop even below minIters, so a box
// several times slower than the one the counts were chosen on still
// finishes a run inside the driver's 180 s limit.
const hardStopSeconds = 110

// setupRepsPerChild is how many set-up repetitions the short child after
// each iteration makes; setup_s is the minimum over all of them.
const setupRepsPerChild = 2

// workload is one fixed child command the harness runs in a closed loop:
// one client, the next child starts when the previous one has exited.
type workload struct {
	name string
	why  string
	// scale is the child's -scale (flow sampling density).
	scale float64
	// serial pins -parallel 1; otherwise the child gets -parallel N.
	serial bool
	// spill gives the child a 1-byte cache budget and the tmpfs work dir
	// as -cache-dir, so every batch is written once and faults back.
	spill bool
	// wire runs `replay -format ipfix` in place of `all`.
	wire bool
	// baseline names the workload whose traced in-process pass the trace
	// mode also runs, to subtract from this one's (flowstore.tier_*,
	// replay.wire_overhead_s) and to take the generator's own cost from
	// when this workload's source is not the generator.
	baseline string
}

// workloads is the benchmark. BENCHMARK.json repeats names and reasons;
// TestBenchmarkJSONMatches keeps the two in step.
var workloads = []workload{
	{
		name:   "suite-p1",
		why:    "Serial baseline: synth is ~2/3 of the pass and most of that is per-batch fixed cost; flowstore and codecs idle. Generator PRs must show here.",
		scale:  0.5,
		serial: true,
	},
	{
		name:  "suite-pN",
		why:   "What a user gets from the defaults: worker budget, scan-chunk borrowing, prefetch and the slowest experiment decide wall here and nowhere else.",
		scale: 0.5,
	},
	{
		name:  "dense-pN",
		why:   "Same path, 4x the rows per batch: synth flips from per-batch to per-row cost, scan kernels and bytes/row matter; a speed-up bought with RSS shows here.",
		scale: 2,
	},
	{
		name:     "spill-p1",
		why:      "1-byte cache budget on tmpfs: every batch is written once and faults back, so segment write, CRC-64 and compaction are on the path; serial so counts repeat.",
		scale:    0.5,
		serial:   true,
		spill:    true,
		baseline: "suite-p1",
	},
	{
		name:     "wire-pN",
		why:      "IPFIX encode, loopback UDP, collector, bridge demux and bit-for-bit verification: ipfix, collector and replay do the work and synth runs twice.",
		scale:    0.5,
		wire:     true,
		baseline: "suite-pN",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workerCount is N: the -parallel value of the *-pN workloads.
func workerCount() int {
	return min(runtime.NumCPU(), 4)
}

// parallel returns the workload's -parallel value.
func (w workload) parallel() int {
	if w.serial {
		return 1
	}
	return workerCount()
}

// childArgs is the lockdown command line of one iteration. The seed
// reaches the program only as -seed; 0 is the documented default model.
func (w workload) childArgs(seed int64, spillDir string) []string {
	cmd := "all"
	if w.wire {
		cmd = "replay"
	}
	args := []string{cmd,
		"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10),
		"-parallel", strconv.Itoa(w.parallel()),
	}
	if w.wire {
		args = append(args, "-format", "ipfix")
	}
	if w.spill {
		args = append(args, "-cache-budget", "1", "-cache-dir", spillDir)
	}
	return args
}

// referenceArgs is the in-memory serial run every iteration's output must
// equal modulo _runtime/* lines.
func (w workload) referenceArgs(seed int64) []string {
	ref := workload{scale: w.scale, serial: true}
	return ref.childArgs(seed, "")
}

// metricDef names one metric the harness prints. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

func (m metricDef) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// endToEnd are the metrics a user of the CLI sees, printed by a plain run.
// The time bounds are wider than the few percent two runs differ by on a
// quiet box: on a shared host a neighbour's busy stretch slows every
// iteration of a run by 10-25 % for minutes at a time, and a bound inside
// that band would reject the benchmark itself whenever a set of runs
// straddles such a stretch. README.md has the measurements.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "cpu_s", unit: "s", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the metrics of single layers, printed by a traced run.
// Every workload prints every one; a layer the workload bypasses reads 0,
// which is the "no change" prediction made checkable.
var perLayer = []metricDef{
	{name: "synth.source_s", unit: "s"},
	{name: "synth.batches", unit: "count"},
	{name: "synth.rows", unit: "count"},
	{name: "synth.us_per_batch", unit: "us"},
	{name: "synth.ns_per_row", unit: "ns"},
	{name: "synth.model_s", unit: "s"},
	{name: "synth.series_s", unit: "s"},
	{name: "core.cold_s", unit: "s"},
	{name: "core.cold_self_s", unit: "s"},
	{name: "core.warm_s", unit: "s"},
	{name: "core.exp_max_s", unit: "s"},
	{name: "core.exp_sum_s", unit: "s"},
	{name: "core.scan_chunks", unit: "count"},
	{name: "core.extra_workers", unit: "count", higher: true},
	{name: "core.prefetched", unit: "count", higher: true},
	{name: "core.cache_hits", unit: "count", higher: true},
	{name: "core.cache_misses", unit: "count"},
	{name: "core.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "flowstore.spills", unit: "count"},
	{name: "flowstore.faults", unit: "count"},
	{name: "flowstore.regens", unit: "count"},
	{name: "flowstore.spilled_mb", unit: "MB"},
	{name: "flowstore.write_mb", unit: "MB"},
	{name: "flowstore.write_amp", unit: "ratio"},
	{name: "flowstore.opens", unit: "count"},
	{name: "flowstore.span_faults", unit: "count"},
	{name: "flowstore.compactions", unit: "count"},
	{name: "flowstore.tier_cold_s", unit: "s"},
	{name: "flowstore.tier_warm_s", unit: "s"},
	{name: "replay.fetch_s", unit: "s"},
	{name: "replay.buckets", unit: "count"},
	{name: "replay.rows", unit: "count"},
	{name: "replay.retries", unit: "count"},
	{name: "replay.lost_rows", unit: "count"},
	{name: "replay.orphan_rows", unit: "count"},
	{name: "replay.decode_errors", unit: "count"},
	{name: "replay.pump_rows_sent", unit: "count"},
	{name: "replay.wire_overhead_s", unit: "s"},
	{name: "ipfix.encode_ns_per_row", unit: "ns"},
	{name: "ipfix.decode_ns_per_row", unit: "ns"},
	{name: "ipfix.bytes_per_row", unit: "B"},
	{name: "report.render_s", unit: "s"},
	{name: "report.bytes", unit: "B"},
	{name: "bench.trace_overhead_ratio", unit: "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the printed map, insisting that
// every defined metric was measured and nothing else was.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d defined metrics", len(values), len(defs))
	}
	return out, nil
}
