package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/synth"
)

// stripRuntime returns the experiment-produced metrics only, dropping the
// engine's stamps (wall time, scan activity).
func stripRuntime(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !IsRuntimeMetric(k) {
			out[k] = v
		}
	}
	return out
}

// TestRunAllParallelDeterminism is the acceptance check of the engine: the
// same seed must yield byte-identical experiment metrics, tables and notes
// at every parallelism level, because all generation is a pure function of
// the run options and what is generated.
func TestRunAllParallelDeterminism(t *testing.T) {
	opts := Options{FlowScale: 0.1, Seed: 7}
	seq, err := NewEngine(opts).RunAll(context.Background(), 1)
	if err != nil {
		t.Fatalf("sequential RunAll: %v", err)
	}
	par, err := NewEngine(opts).RunAll(context.Background(), 8)
	if err != nil {
		t.Fatalf("parallel RunAll: %v", err)
	}
	if len(seq) != len(par) || len(seq) != len(All()) {
		t.Fatalf("result counts differ: sequential %d, parallel %d, registry %d", len(seq), len(par), len(All()))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.ID != p.ID {
			t.Fatalf("result %d: order differs (%q vs %q)", i, s.ID, p.ID)
		}
		sm, pm := stripRuntime(s.Metrics), stripRuntime(p.Metrics)
		if len(sm) != len(pm) {
			t.Errorf("%s: metric counts differ (%d vs %d)", s.ID, len(sm), len(pm))
		}
		for k, sv := range sm {
			pv, ok := pm[k]
			if !ok {
				t.Errorf("%s: metric %q missing from parallel run", s.ID, k)
				continue
			}
			if math.Float64bits(sv) != math.Float64bits(pv) {
				t.Errorf("%s: metric %q differs bitwise: %v vs %v", s.ID, k, sv, pv)
			}
		}
		if !reflect.DeepEqual(s.Tables, p.Tables) {
			t.Errorf("%s: tables differ between sequential and parallel runs", s.ID)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ between sequential and parallel runs", s.ID)
		}
	}
}

func TestRunAllPaperOrder(t *testing.T) {
	results, err := NewEngine(Options{FlowScale: 0.1}).RunMany(context.Background(), []string{"tab2", "appB", "tab1"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{results[0].ID, results[1].ID, results[2].ID}
	want := []string{"tab2", "appB", "tab1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunMany order = %v, want the requested order %v", got, want)
	}
}

func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine(Options{FlowScale: 0.1}).RunAll(ctx, 4); err == nil {
		t.Error("RunAll with a cancelled context should fail")
	}
	if _, err := NewEngine(Options{FlowScale: 0.1}).Run(ctx, "tab2"); err == nil {
		t.Error("Run with a cancelled context should fail")
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := NewEngine(Options{}).RunMany(context.Background(), []string{"no-such-figure"}, 2); err == nil {
		t.Error("unknown experiment ID should fail")
	}
}

func TestDatasetSharing(t *testing.T) {
	d := NewDataset(Options{FlowScale: 0.1})
	g1, err := d.Generator(synth.ISPCE)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d.Generator(synth.ISPCE)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("repeated Generator calls should return the shared instance")
	}
	v1, err := d.VPN(synth.IXPCE)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d.VPN(synth.IXPCE)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("repeated VPN calls should return the shared dataset")
	}
	if base, _ := d.Generator(synth.IXPCE); base == v1.Gen {
		t.Error("the VPN generator must be a distinct, gateway-pinned copy")
	}
	stats := d.Stats()
	if stats.Hits == 0 || stats.Misses == 0 || stats.Entries == 0 {
		t.Errorf("cache stats should record entries, hits and misses: %+v", stats)
	}
}

func TestEngineStampsRuntimeMetrics(t *testing.T) {
	res, err := NewEngine(Options{}).Run(context.Background(), "tab2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metrics[MetricWallMS]; !ok {
		t.Errorf("result lacks %s", MetricWallMS)
	}
	if mb, ok := res.Metrics[MetricBatchMB]; !ok || mb != 0 {
		t.Errorf("%s = %v, %v; tab2 draws no flow batch and must read 0", MetricBatchMB, mb, ok)
	}
	if !IsRuntimeMetric(MetricWallMS) || !IsRuntimeMetric(MetricBatchMB) {
		t.Error("runtime metric keys should classify as runtime metrics")
	}
	if IsRuntimeMetric("hypergiants") {
		t.Error("experiment metrics must not classify as runtime metrics")
	}
}

// TestBatchMBIsAttributable: _runtime/batch-mb is a property of the
// experiment — the distinct flow batches its scans drew, at the width of
// the columns they store — not of the process, so it reads the same however the
// run was parallelised (the column it replaces, a process-global
// allocation delta, tripled from -parallel 1 to 4).
func TestBatchMBIsAttributable(t *testing.T) {
	ids := []string{"fig7a", "fig8", "fig12", "tab2"}
	run := func(opts Options, parallel int) map[string]float64 {
		t.Helper()
		rs, err := NewEngine(opts).RunMany(context.Background(), ids, parallel)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, r := range rs {
			out[r.ID] = r.Metrics[MetricBatchMB]
		}
		return out
	}
	base := Options{FlowScale: 0.05}
	want := run(base, 1)
	for _, id := range ids {
		if flows := id != "tab2"; flows != (want[id] > 0) {
			t.Errorf("%s: batch-mb = %v, reads flows: %v", id, want[id], flows)
		}
	}
	// fig8 draws exactly the gaming component's days of weeks 7-17, which
	// store a byte counter and one address: 12 bytes a row, not 59.
	d := NewDataset(base)
	var rows int
	for day := time.Date(2020, 2, 10, 0, 0, 0, 0, time.UTC); day.Before(time.Date(2020, 4, 27, 0, 0, 0, 0, time.UTC)); day = day.AddDate(0, 0, 1) {
		b, err := componentFlowBatch(d, synth.IXPSE, "gaming", day)
		if err != nil {
			t.Fatal(err)
		}
		rows += b.Len()
	}
	width := FlowKey{Kind: KindComponentFlows}.Columns().RowBytes()
	if width != 12 {
		t.Errorf("a component-flow row stores %d bytes, want 12", width)
	}
	if mb := float64(rows*width) / (1 << 20); want["fig8"] != mb {
		t.Errorf("fig8: batch-mb = %v, its %d rows at %d bytes are %v", want["fig8"], rows, width, mb)
	}

	if got := run(base, 4); !reflect.DeepEqual(want, got) {
		t.Errorf("-parallel 4: batch-mb = %v, want %v as at -parallel 1", got, want)
	}
}
