package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/edu"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// testHour is an arbitrary study-window hour used by the direct dataset
// tests.
var testHour = time.Date(2020, 3, 25, 14, 0, 0, 0, time.UTC)

// flowBatch draws the flows of every component over the UTC day t falls
// in, straight from d's source. The experiments read every day as a
// reduction (Env.partial); the dataset tests draw batches with this and
// the helpers after it.
func flowBatch(d *Dataset, vp synth.VantagePoint, t time.Time) (*flowrec.Batch, error) {
	return d.draw(FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(t)})
}

// vpnFlowBatch is flowBatch from the gateway-pinned generator.
func vpnFlowBatch(d *Dataset, vp synth.VantagePoint, t time.Time) (*flowrec.Batch, error) {
	return d.draw(FlowKey{Kind: KindVPNFlows, VP: vp, Hour: DayOf(t)})
}

// componentFlowBatch draws one named component over the UTC day t falls in.
func componentFlowBatch(d *Dataset, vp synth.VantagePoint, name string, t time.Time) (*flowrec.Batch, error) {
	return d.draw(FlowKey{Kind: KindComponentFlows, VP: vp, Name: name, Hour: DayOf(t)})
}

// TestRunAllSpillDeterminism: the flags of the benchmark's spill workload
// have no effect on a parallel engine. With a generous budget and with a
// 1-byte budget, each under a cache dir, the suite at -parallel 8 equals
// the default run result for result, and ends holding nothing.
func TestRunAllSpillDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times")
	}
	base := Options{FlowScale: 0.05, Seed: 3}
	want, err := NewEngine(base).RunAll(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	generous := base
	generous.CacheBudget, generous.CacheDir = 1<<30, t.TempDir()
	tiny := base
	tiny.CacheBudget, tiny.CacheDir = 1, t.TempDir()
	for _, tc := range []struct {
		label string
		opts  Options
	}{
		{"generous-budget", generous},
		{"tiny-budget", tiny},
	} {
		e := NewEngine(tc.opts)
		got, err := e.RunAll(context.Background(), 8)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		requireSameResults(t, tc.label, want, got)
		holdsNothing(t, tc.label, e.Data())
	}
}

// TestEvictionForgetsWithoutCacheDir: under a 1-byte budget, without and
// with a cache dir, the suite equals the default run result for result at
// seeds 0 and 7, ends holding nothing, and writes no file: the cache dir
// and an empty TMPDIR stay empty.
func TestEvictionForgetsWithoutCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite six times")
	}
	cacheDir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, seed := range []int64{0, 7} {
		base := Options{FlowScale: 0.05, Seed: seed}
		want, err := NewEngine(base).RunAll(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 21 {
			t.Fatalf("%d results, want the 21 experiments", len(want))
		}
		forget := base
		forget.CacheBudget = 1
		spill := forget
		spill.CacheDir = cacheDir
		for _, opts := range []Options{forget, spill} {
			label := fmt.Sprintf("seed %d, budget 1, cache dir %q", seed, opts.CacheDir)
			e := NewEngine(opts)
			got, err := e.RunAll(context.Background(), 1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameResults(t, label, want, got)
			holdsNothing(t, label, e.Data())
		}
	}
	for _, dir := range []string{cacheDir, tmp} {
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Errorf("a suite run left %d files under %s (%v)", len(files), dir, err)
		}
	}
}

// holdsNothing fails unless d, after a suite run, holds no partial and
// every entry is spent: every batch was dropped at its first draw and
// every partial by its last reader, so the next run draws each key afresh.
func holdsNothing(t *testing.T, label string, d *Dataset) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, fe := range d.flows {
		if len(fe.partials) != 0 || !fe.spent {
			t.Errorf("%s: %v still holds %d partials, or is not spent (%v)", label, k, len(fe.partials), fe.spent)
		}
	}
	if len(d.readers) != 0 {
		t.Errorf("%s: %d keys still have declared takes left", label, len(d.readers))
	}
}

// suiteKeys is the number of distinct flow batches one suite run draws:
// the union of the keys the experiments declare (Experiment.reads), one
// UTC day each. TestKeyCensus holds the declaration to what each
// experiment draws, and pins the count.
func suiteKeys() int {
	keys := make(map[FlowKey]bool)
	for _, e := range All() {
		for _, r := range e.reads {
			for _, k := range r.keys() {
				keys[k] = true
			}
		}
	}
	return len(keys)
}

// drawsEachKeyOnce fails unless src was asked for each of the suite's
// keys exactly n times.
func drawsEachKeyOnce(t *testing.T, label string, src *recordingSource, n int) {
	t.Helper()
	if len(src.keys) != suiteKeys() {
		t.Errorf("%s: %d keys drawn, want the %d the suite declares", label, len(src.keys), suiteKeys())
	}
	for k, got := range src.keys {
		if got != n {
			t.Errorf("%s: %v drawn %d times in all, want %d", label, k, got, n)
		}
	}
}

// TestSuiteHoldsNoBatch: at -cache-budget 0, the wire modes' default, a
// suite run at -parallel 1 and 4 asks the source for each of its keys
// exactly once and ends holding no partial, every entry spent. A second
// run on the same engine does the same: it draws each key once more, and
// its results equal the first run's. CI also runs it beside another test
// binary, whose load once changed how often a shared day was drawn.
func TestSuiteHoldsNoBatch(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		opts := Options{FlowScale: 0.05}
		src := newRecordingSource(opts)
		e := NewEngineWithSource(opts, src)
		var first []*Result
		for run := 1; run <= 2; run++ {
			label := fmt.Sprintf("parallel %d, budget 0, run %d", parallel, run)
			rs, err := e.RunAll(context.Background(), parallel)
			if err != nil {
				t.Fatal(err)
			}
			drawsEachKeyOnce(t, label, src, run)
			holdsNothing(t, label, e.Data())
			if run == 1 {
				first = rs
			} else {
				requireSameResults(t, fmt.Sprintf("parallel %d, second run", parallel), first, rs)
			}
		}
	}
}

// TestBudgetedFaultsMatchSerial: under a 1-byte budget, at seeds 0 and 7,
// the suite serially and at -parallel 2, 4 and 8 asks the source for each
// of its keys exactly once, ends holding nothing, and equals the serial
// run result for result. The days two experiments share (Figures 7a/7b
// and 9 on 28 workdays of ISP-CE and IXP-CE, Figure 10 and ablation-vpn
// on the 7 days of the March week) are reduced for both readers at their
// first draw, whichever experiment draws first; nothing else reads a day
// twice.
func TestBudgetedFaultsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite eight times")
	}
	for _, seed := range []int64{0, 7} {
		var serial []*Result
		for _, parallel := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("seed %d, -parallel %d, budget 1", seed, parallel)
			opts := Options{FlowScale: 0.05, Seed: seed, CacheBudget: 1}
			src := newRecordingSource(opts)
			e := NewEngineWithSource(opts, src)
			rs, err := e.RunAll(context.Background(), parallel)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			drawsEachKeyOnce(t, label, src, 1)
			holdsNothing(t, label, e.Data())
			if parallel == 1 {
				serial = rs
			} else {
				requireSameResults(t, label, serial, rs)
			}
		}
	}
}

// TestFig12CountsWhereItReads pins Figure 12 to the computation it
// replaced: one concatenated flow batch per sampled day, counted whole.
// Counting each day as its reduction (eduCounts) and merging the counts
// must give the same median growth bit for bit, at seeds 0 and 7.
func TestFig12CountsWhereItReads(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		opts := quick()
		opts.Seed = seed
		g, err := synth.New(opts.synthConfig(synth.EDU))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Date(2020, 2, 27, 0, 0, 0, 0, time.UTC)
		byDay := make(map[time.Time]*flowrec.Batch)
		for d := start; d.Before(time.Date(2020, 5, 8, 0, 0, 0, 0, time.UTC)); d = d.AddDate(0, 0, 1) {
			switch d.Weekday() {
			case time.Tuesday, time.Thursday, time.Saturday:
				byDay[d] = g.FlowsBetweenBatch(d, d.AddDate(0, 0, 1))
			}
		}
		cats := append(edu.DefaultCategories(), edu.ExtraCategories()...)
		growth := edu.ConnectionGrowth(edu.CountConnections(byDay), start, cats)

		res := run(t, "fig12", opts)
		for _, c := range cats {
			want := growth.MedianGrowthAfter(c.Name, calendar.EDUClosure)
			if got := res.Metric(c.Name); want == 0 || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d: %s = %v, whole-day counting gives %v", seed, c.Name, got, want)
			}
		}
	}
}
