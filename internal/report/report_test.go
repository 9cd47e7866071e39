package report

import (
	"strings"
	"testing"

	"lockdown/internal/core"
)

func sampleResult() *core.Result {
	return &core.Result{
		ID:    "fig0",
		Title: "Sample experiment",
		Tables: []core.Table{
			{
				Title:   "Growth per week",
				Columns: []string{"week", "growth"},
				Rows:    [][]string{{"3", "1.00"}, {"13", "1.22"}},
			},
		},
		Metrics: map[string]float64{"week13": 1.22, "week3": 1.0},
		Notes:   []string{"growth peaks in week 13"},
	}
}

func TestWriteText(t *testing.T) {
	var b strings.Builder
	if err := WriteText(&b, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig0", "Sample experiment", "Growth per week", "week", "1.22", "metrics:", "week13", "note: growth peaks"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Columns must be aligned: the separator row exists.
	if !strings.Contains(out, "----") {
		t.Error("expected a separator line")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "week,growth") || !strings.Contains(out, "13,1.22") {
		t.Errorf("CSV output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "# fig0: Growth per week") {
		t.Error("CSV output should name the table")
	}
}

// TestTimingsSumRow: the last row of the timing table adds the columns up
// and says so; a sum of per-experiment wall times is neither the run's
// wall clock nor its cpu time, and the row does not claim to be either.
func TestTimingsSumRow(t *testing.T) {
	rs := []*core.Result{
		{ID: "a", Metrics: map[string]float64{core.MetricWallMS: 1.5, core.MetricBatchMB: 2, core.MetricScanChunks: 3}},
		{ID: "b", Metrics: map[string]float64{core.MetricWallMS: 2.5, core.MetricBatchMB: 1, core.MetricScanChunks: 4, core.MetricScanWorkers: 1}},
	}
	var b strings.Builder
	if err := WriteTimings(&b, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if got := strings.Fields(lines[len(lines)-1]); strings.Join(got, " ") != "SUM 4.0 3.0 7 1" {
		t.Errorf("last row = %q, want the column sums labelled SUM:\n%s", got, b.String())
	}
	for _, word := range []string{"cpu", "TOTAL"} {
		if strings.Contains(b.String(), word) {
			t.Errorf("the timing table says %q:\n%s", word, b.String())
		}
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("Bar should clamp, got %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" || Bar(1, 10, 0) != "" {
		t.Error("degenerate bars should be empty")
	}
}

func TestChart(t *testing.T) {
	var b strings.Builder
	err := Chart(&b, "Weekly growth", []string{"week 3", "week 13"}, []float64{1.0, 1.3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Weekly growth") || !strings.Contains(out, "week 13") || !strings.Contains(out, "#") {
		t.Errorf("chart output unexpected:\n%s", out)
	}
	if err := Chart(&b, "bad", []string{"a"}, []float64{1, 2}, 20); err == nil {
		t.Error("mismatched labels/values accepted")
	}
}

func TestRenderRealExperiment(t *testing.T) {
	res, err := core.Run("tab2", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteText(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Netflix") {
		t.Error("rendered Table 2 should list Netflix")
	}
}
