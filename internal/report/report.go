// Package report renders experiment results (package core) as aligned
// plain-text tables, CSV, JSON, compact ASCII bar charts, engine timing
// summaries and the generated EXPERIMENTS.md, for the CLI and the
// examples.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lockdown/internal/core"
)

// WriteText renders the result as aligned text tables followed by the
// metrics and notes.
func WriteText(w io.Writer, r *core.Result) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := writeTable(w, t); err != nil {
			return err
		}
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintln(w, "metrics:")
		for _, k := range sortedKeys(r.Metrics) {
			fmt.Fprintf(w, "  %-60s %10.3f\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeTable(w io.Writer, t core.Table) error {
	if _, err := fmt.Fprintf(w, "\n%s\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(sep, "  ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// WriteCSV renders every table of the result as CSV, separated by a line
// naming the table.
func WriteCSV(w io.Writer, r *core.Result) error {
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "# %s: %s\n", r.ID, t.Title); err != nil {
			return err
		}
		cw := csv.NewWriter(w)
		if err := cw.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders one result as indented JSON.
func WriteJSON(w io.Writer, r *core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONAll renders results as one indented JSON array.
func WriteJSONAll(w io.Writer, rs []*core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// WriteTimings renders the engine's per-experiment wall time and batch
// memory read (the runtime metrics stamped by core.Engine) as a
// bench-style summary table, slowest first, followed by the total. The
// scan columns expose the intra-experiment sharding activity: how many
// grid chunks the experiment's sharded scans processed, how many extra
// workers they borrowed from the -parallel budget.
func WriteTimings(w io.Writer, rs []*core.Result) error {
	type row struct {
		id      string
		wallMS  float64
		batchMB float64
		chunks  float64
		extra   float64
	}
	rows := make([]row, 0, len(rs))
	var totalMS, totalMB, totalChunks, totalExtra float64
	for _, r := range rs {
		rw := row{
			id:      r.ID,
			wallMS:  r.Metric(core.MetricWallMS),
			batchMB: r.Metric(core.MetricBatchMB),
			chunks:  r.Metric(core.MetricScanChunks),
			extra:   r.Metric(core.MetricScanWorkers),
		}
		totalMS += rw.wallMS
		totalMB += rw.batchMB
		totalChunks += rw.chunks
		totalExtra += rw.extra
		rows = append(rows, rw)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].wallMS > rows[j].wallMS })
	t := core.Table{Title: "Timing summary (slowest first)", Columns: []string{"experiment", "wall ms", "batch MB", "scan chunks", "extra workers"}}
	for _, rw := range rows {
		t.Rows = append(t.Rows, []string{rw.id, fmt.Sprintf("%.1f", rw.wallMS), fmt.Sprintf("%.1f", rw.batchMB),
			fmt.Sprintf("%.0f", rw.chunks), fmt.Sprintf("%.0f", rw.extra)})
	}
	t.Rows = append(t.Rows, []string{"TOTAL (cpu)", fmt.Sprintf("%.1f", totalMS), fmt.Sprintf("%.1f", totalMB),
		fmt.Sprintf("%.0f", totalChunks), fmt.Sprintf("%.0f", totalExtra)})
	return writeTable(w, t)
}

// WriteExperimentsDoc renders the generated EXPERIMENTS.md: an index table
// mapping experiment IDs to paper artifacts, followed by one section per
// experiment with its headline metrics and narrative notes. The document
// is produced from the registry and a real run, so it cannot drift from
// the code; runtime metrics are omitted.
func WriteExperimentsDoc(w io.Writer, rs []*core.Result) error {
	fmt.Fprintln(w, "# Experiments")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "<!-- Generated by `lockdown doc`; do not edit by hand.")
	fmt.Fprintln(w, "     Regenerate with: go run ./cmd/lockdown doc > EXPERIMENTS.md -->")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every table and figure of \"The Lockdown Effect\" (IMC 2020) is")
	fmt.Fprintln(w, "reproduced by one registered experiment. The metrics below come from a")
	fmt.Fprintln(w, "real run of the engine at the default options. The flow-level")
	fmt.Fprintln(w, "experiments scan columnar `flowrec.Batch` inputs; the same batches")
	fmt.Fprintln(w, "round-trip the NetFlow v9 and IPFIX codecs (`EncodeBatch`/`DecodeBatch`),")
	fmt.Fprintln(w, "so regenerating this document exercises the exact record layout the")
	fmt.Fprintln(w, "collector path consumes (see docs/ARCHITECTURE.md, \"Columnar flow")
	fmt.Fprintln(w, "batches\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The suite also runs over a live wire: `lockdown replay` streams every")
	fmt.Fprintln(w, "flow batch through real NetFlow v9 or IPFIX export over UDP")
	fmt.Fprintln(w, "(`-format v9|ipfix`), demuxes and verifies the received rows")
	fmt.Fprintln(w, "bit-for-bit against the model, and reproduces every metric below")
	fmt.Fprintln(w, "bit-identically — asserted by the race-enabled golden test in")
	fmt.Fprintln(w, "internal/replay (see docs/ARCHITECTURE.md, \"The wire-replay")
	fmt.Fprintln(w, "bridge\"). `lockdown cluster -shards N` runs the same suite")
	fmt.Fprintln(w, "distributed, the way the paper's vantage points were measured:")
	fmt.Fprintln(w, "the vantage points are partitioned over N exporter pumps, each")
	fmt.Fprintln(w, "exporting on its own socket, demuxed by wire stream identity —")
	fmt.Fprintln(w, "IPFIX observation domain or NetFlow v9 source ID —")
	fmt.Fprintln(w, "and every metric below is still reproduced bit-identically (see")
	fmt.Fprintln(w, "docs/ARCHITECTURE.md, \"The sharded cluster\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The wire path is built to survive faults without perturbing a metric:")
	fmt.Fprintln(w, "lost, duplicated, reordered or corrupted datagrams are detected,")
	fmt.Fprintln(w, "re-requested and accounted under one wall-clock deadline per fetch")
	fmt.Fprintln(w, "(20 s: four 5 s attempt timeouts), and a shard whose")
	fmt.Fprintln(w, "pump stops is dead at once: its vantage points are re-partitioned")
	fmt.Fprintln(w, "over the survivors. `-chaos 'drop=0.05,kill=shard1@t+2s,seed=7'`")
	fmt.Fprintln(w, "injects a deterministic fault schedule to drill exactly that. A wire")
	fmt.Fprintln(w, "run either reproduces every metric below bit-identically or fails: a")
	fmt.Fprintln(w, "bucket no pump serves within its budget ends the run (see")
	fmt.Fprintln(w, "docs/ARCHITECTURE.md, \"Failure modes and recovery\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Memory is bounded by default: the dataset cache keeps a working set")
	fmt.Fprintln(w, "of flow batches, not the dataset. `run`, `all`, `doc` and `scenario")
	fmt.Fprintln(w, "run` cap the resident batches at `-cache-budget 16M`; colder days")
	fmt.Fprintln(w, "are dropped and generated again if an experiment touches them again")
	fmt.Fprintln(w, "(about one batch in eleven is). `replay` and `cluster`, where a")
	fmt.Fprintln(w, "re-touch is a wire round trip, keep every batch (`-cache-budget 0`)")
	fmt.Fprintln(w, "unless told otherwise. Naming a `-cache-dir` adds a disk tier:")
	fmt.Fprintln(w, "evicted batches are appended, each written once, as checksummed")
	fmt.Fprintln(w, "columnar spans to append-only span files under it, and a later")
	fmt.Fprintln(w, "access maps exactly that span back in. The budget never changes a")
	fmt.Fprintln(w, "metric — rebuilt and mapped batches are bit for bit the generated")
	fmt.Fprintln(w, "ones (see docs/ARCHITECTURE.md, \"The spillable dataset store\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The per-row column scans those experiments run — per-class byte")
	fmt.Fprintln(w, "volumes, VPN method splits, EDU class/direction counts, port")
	fmt.Fprintln(w, "histograms — share the `internal/simd` kernel package: unsafe-free,")
	fmt.Fprintln(w, "allocation-free scatter accumulations written so the compiler can")
	fmt.Fprintln(w, "drop bounds checks and branches. The kernels")
	fmt.Fprintln(w, "accumulate in exact integer arithmetic and are quick-checked against")
	fmt.Fprintln(w, "their scalar references, so they change wall clock, never a metric")
	fmt.Fprintln(w, "(see docs/ARCHITECTURE.md, \"Scan kernels\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Parallelism is two-level under one budget: `-parallel n` bounds the")
	fmt.Fprintln(w, "total worker count, experiments run concurrently on it, and the day,")
	fmt.Fprintln(w, "vantage-point and sampled-day scans inside each experiment borrow")
	fmt.Fprintln(w, "whatever is spare, one grid item per chunk. The worker count never")
	fmt.Fprintln(w, "changes a metric: partial aggregates merge exactly and in grid order")
	fmt.Fprintln(w, "(see docs/ARCHITECTURE.md, \"Intra-experiment sharding\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every command is observable while it runs: `-metrics-addr :0` serves")
	fmt.Fprintln(w, "a Prometheus `/metrics` exposition of all `lockdown_*` instrument")
	fmt.Fprintln(w, "families (experiments, scan chunks, cache tiers, flowstore I/O,")
	fmt.Fprintln(w, "per-stream bridge accounting, cluster health, chaos faults) plus live")
	fmt.Fprintln(w, "pprof, and `-trace out.json` records a Chrome trace_event timeline —")
	fmt.Fprintln(w, "experiment and scan-chunk spans, cache spills/faults, bridge fetches")
	fmt.Fprintln(w, "and retries, shard deaths and rebalances — whose per-experiment")
	fmt.Fprintln(w, "span durations share the clock of the `_runtime/wall-ms` stamps.")
	fmt.Fprintln(w, "Neither flag changes a metric, and both cost zero when off (see")
	fmt.Fprintln(w, "docs/ARCHITECTURE.md, \"Observability\").")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The traffic model itself is declarative: `lockdown scenario run")
	fmt.Fprintln(w, "<file.yaml>` executes this same suite on a YAML-declared what-if")
	fmt.Fprintln(w, "timeline — shifted or repeated lockdown waves, extra holidays, flash")
	fmt.Fprintln(w, "events, link outages, an early return to office (see")
	fmt.Fprintln(w, "docs/SCENARIOS.md and the gallery under examples/scenarios/). The")
	fmt.Fprintln(w, "shipped default scenario restates the paper's timeline and compiles")
	fmt.Fprintln(w, "to the built-in model bit for bit, so its run reproduces every")
	fmt.Fprintln(w, "metric below byte-identically; any actual deviation tags the")
	fmt.Fprintln(w, "compiled model with the scenario's name as its variant, and every")
	fmt.Fprintln(w, "run builds its own dataset, so nothing is shared across models.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| ID | Paper artifact | Title |")
	fmt.Fprintln(w, "|----|----------------|-------|")
	for _, r := range rs {
		exp, ok := core.ByID(r.ID)
		if !ok {
			return fmt.Errorf("report: result %q has no registered experiment", r.ID)
		}
		fmt.Fprintf(w, "| `%s` | %s | %s |\n", exp.ID, exp.Artifact, exp.Title)
	}
	for _, r := range rs {
		exp, _ := core.ByID(r.ID)
		fmt.Fprintf(w, "\n## `%s` — %s\n\n", exp.ID, exp.Artifact)
		fmt.Fprintf(w, "%s\n", exp.Title)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			if !core.IsRuntimeMetric(k) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			fmt.Fprintln(w)
			fmt.Fprintln(w, "| Metric | Value |")
			fmt.Fprintln(w, "|--------|-------|")
			for _, k := range keys {
				fmt.Fprintf(w, "| `%s` | %.3f |\n", k, r.Metrics[k])
			}
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "\n> %s\n", n)
		}
	}
	return nil
}

// Bar renders a single horizontal ASCII bar of the given relative value
// (1.0 = full width).
func Bar(value, max float64, width int) string {
	if width <= 0 || max <= 0 || value < 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Chart renders labelled values as an ASCII bar chart, ordered as given.
func Chart(w io.Writer, title string, labels []string, values []float64, width int) error {
	if len(labels) != len(values) {
		return fmt.Errorf("report: %d labels for %d values", len(labels), len(values))
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	max := 0.0
	labelWidth := 0
	for i, v := range values {
		if v > max {
			max = v
		}
		if len(labels[i]) > labelWidth {
			labelWidth = len(labels[i])
		}
	}
	if max == 0 {
		max = 1
	}
	for i, v := range values {
		if _, err := fmt.Fprintf(w, "  %s  %s %s\n", pad(labels[i], labelWidth), Bar(v, max, width),
			strconv.FormatFloat(v, 'f', 2, 64)); err != nil {
			return err
		}
	}
	return nil
}
