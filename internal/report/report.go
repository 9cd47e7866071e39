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
// bench-style summary table, slowest first, followed by the column sums.
// The sum of wall times is not the run's wall clock nor its cpu time:
// experiments overlap under -parallel, and one may spend time folding a
// shared day for another. The scan columns expose each experiment's
// declared-read pass: how many keys its reads took, one chunk each, and
// how many extra workers the pass borrowed from the -parallel budget.
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
	t.Rows = append(t.Rows, []string{"SUM", fmt.Sprintf("%.1f", totalMS), fmt.Sprintf("%.1f", totalMB),
		fmt.Sprintf("%.0f", totalChunks), fmt.Sprintf("%.0f", totalExtra)})
	return writeTable(w, t)
}

// WriteExperimentsDoc renders the generated EXPERIMENTS.md: an index table
// mapping experiment IDs to paper artifacts, followed by one section per
// experiment with its headline metrics and notes. The document is produced
// from the registry and a real run, so it cannot drift from the code;
// runtime metrics are omitted. It describes no mechanism: that is
// docs/ARCHITECTURE.md's, to which it points.
func WriteExperimentsDoc(w io.Writer, rs []*core.Result) error {
	fmt.Fprintln(w, "# Experiments")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "<!-- Generated by `lockdown doc`; do not edit by hand.")
	fmt.Fprintln(w, "     Regenerate with: go run ./cmd/lockdown doc > EXPERIMENTS.md -->")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every table and figure of \"The Lockdown Effect\" (IMC 2020) is")
	fmt.Fprintln(w, "reproduced by one registered experiment, and the metrics below come")
	fmt.Fprintln(w, "from a real run of the engine at the default options. How the engine,")
	fmt.Fprintln(w, "its dataset cache, the wire path and the scenario compiler work is")
	fmt.Fprintln(w, "described in docs/ARCHITECTURE.md.")
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
