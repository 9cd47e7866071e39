package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
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
// reduction (Dataset.takeReads); the dataset tests draw batches with this
// and the helpers after it.
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
// the default run result for result, and so does the next run on the same
// engine, which draws each key exactly once: the first left nothing
// behind.
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
		src := newRecordingSource(tc.opts)
		e := NewEngineWithSource(tc.opts, src)
		got, err := e.RunAll(context.Background(), 8)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		requireSameResults(t, tc.label, want, got)
		nextRunDrawsOnce(t, tc.label, e, src, want, 8)
	}
}

// TestEvictionForgetsWithoutCacheDir: under a 1-byte budget, without and
// with a cache dir, the suite equals the default run result for result at
// seeds 0 and 7, and so does the next run on the same engine, which draws
// each key exactly once; and no run writes a file: the cache dir and an
// empty TMPDIR stay empty.
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
			src := newRecordingSource(opts)
			e := NewEngineWithSource(opts, src)
			got, err := e.RunAll(context.Background(), 1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameResults(t, label, want, got)
			nextRunDrawsOnce(t, label, e, src, want, 1)
		}
	}
	for _, dir := range []string{cacheDir, tmp} {
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Errorf("a suite run left %d files under %s (%v)", len(files), dir, err)
		}
	}
}

// nextRunDrawsOnce runs the suite once more on e, whose flow source is
// src, and fails unless that run equals want and asks src for each of the
// suite's keys exactly once: whatever the run before it did, it left
// nothing the next run finds.
func nextRunDrawsOnce(t *testing.T, label string, e *Engine, src *recordingSource, want []*Result, parallel int) {
	t.Helper()
	label += ", the next run"
	src.reset()
	got, err := e.RunAll(context.Background(), parallel)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireSameResults(t, label, want, got)
	drawsEachKeyOnce(t, label, src.keys, 1)
}

// TestCacheStatsAcrossRuns pins the cache counters over two suite runs on
// one engine, at -parallel 1, 4 and 8: every lookup of a model or series
// memo counts, whoever asks — an experiment, a reduction or a draw — a
// miss when it built the value and a hit otherwise, so the counts do not
// depend on who asks first. The second run builds nothing and adds hits
// only. The first run's are the counts of the stderr summary of `lockdown
// all`, which bench/ reads as core.cache_hits after both of its passes.
// CI also runs it beside another test binary, where scheduling varies.
func TestCacheStatsAcrossRuns(t *testing.T) {
	for _, parallel := range []int{1, 4, 8} {
		e := NewEngine(Options{FlowScale: 0.05})
		for run, want := range []CacheStats{{Hits: 232, Misses: 17}, {Hits: 471, Misses: 17}} {
			if _, err := e.RunAll(context.Background(), parallel); err != nil {
				t.Fatal(err)
			}
			if got := e.Data().Stats(); got != want {
				t.Errorf("parallel %d, after run %d: %+v, want %+v", parallel, run+1, got, want)
			}
		}
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

// drawsEachKeyOnce fails unless draws, the count of each key a source was
// asked for (recordingSource.keys) or a dataset filled (countFills),
// holds each of the suite's keys exactly n times.
func drawsEachKeyOnce(t *testing.T, label string, draws map[FlowKey]int, n int) {
	t.Helper()
	if len(draws) != suiteKeys() {
		t.Errorf("%s: %d keys drawn, want the %d the suite declares", label, len(draws), suiteKeys())
	}
	for k, got := range draws {
		if got != n {
			t.Errorf("%s: %v drawn %d times in all, want %d", label, k, got, n)
		}
	}
}

// countFills returns the count, per key, of the fills of d's read plans
// from now on. A dataset on its default source streams each key from its
// model without asking a source for a batch, so the fills are its draws.
// Read the counts only when no run is in flight.
func countFills(d *Dataset) map[FlowKey]int {
	var mu sync.Mutex
	fills := make(map[FlowKey]int)
	d.filled = func(k FlowKey) {
		mu.Lock()
		fills[k]++
		mu.Unlock()
	}
	return fills
}

// TestSuiteHoldsNoBatch: a suite run at -parallel 1 and 4 draws each of
// its keys exactly once, on the path `lockdown all` runs (the dataset's
// own model, which streams each key: its fills are counted) and on a
// foreign source (asked for each key's batch: its asks are counted). A
// second run on the same engine does the same: it draws each key once
// more, since the first run's plan died with it, and its results equal
// the first run's, on either path. CI also runs it beside another test
// binary, whose load once changed how often a shared day was drawn.
func TestSuiteHoldsNoBatch(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		opts := Options{FlowScale: 0.05}
		src := newRecordingSource(opts)
		foreign := NewEngineWithSource(opts, src)
		own := NewEngine(opts)
		fills := countFills(own.Data())
		var first []*Result
		for run := 1; run <= 2; run++ {
			for _, path := range []struct {
				name  string
				e     *Engine
				draws map[FlowKey]int
			}{{"streamed", own, fills}, {"foreign", foreign, src.keys}} {
				label := fmt.Sprintf("parallel %d, %s, run %d", parallel, path.name, run)
				rs, err := path.e.RunAll(context.Background(), parallel)
				if err != nil {
					t.Fatal(err)
				}
				drawsEachKeyOnce(t, label, path.draws, run)
				if first == nil {
					first = rs
				} else {
					requireSameResults(t, label, first, rs)
				}
			}
		}
	}
}

// TestBudgetedFaultsMatchSerial: under a 1-byte budget, at seeds 0 and 7,
// the suite serially and at -parallel 2, 4 and 8 asks the source for each
// of its keys exactly once and equals the serial
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
			drawsEachKeyOnce(t, label, src.keys, 1)
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
