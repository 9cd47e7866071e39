package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/edu"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// TestEvictionForgetsWithoutCacheDir: a suite run holds no batch past its
// first draw, so unbudgeted, under a 1-byte budget and under a 1-byte
// budget with a cache directory it holds, evicts, spills and faults
// nothing, and all 21 results equal the unbudgeted run's. Reading every
// batch back after the run is where the tiers work: each batch is rebuilt
// once and equals a fresh generation, and under the budget it is evicted
// when read; without a cache directory it is forgotten, with one it is
// written to a span once and none is regenerated. Only that read-back
// touches the disk: the run without a directory spills nothing and leaves
// an empty TMPDIR empty.
func TestEvictionForgetsWithoutCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite six times")
	}
	cacheDir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, seed := range []int64{0, 7} {
		run := func(opts Options) ([]*Result, CacheStats) {
			t.Helper()
			e := NewEngine(opts)
			defer e.Data().Close()
			rs, err := e.RunAll(context.Background(), 1)
			if err != nil {
				t.Fatalf("RunAll(%+v): %v", opts, err)
			}
			holdsNothing(t, fmt.Sprintf("seed %d, budget %d, cache dir %q", seed, opts.CacheBudget, opts.CacheDir), e.Data())
			return rs, reread(t, e.Data(), opts)
		}
		base := Options{FlowScale: 0.05, Seed: seed}
		want, _ := run(base)
		if len(want) != 21 {
			t.Fatalf("%d results, want the 21 experiments", len(want))
		}

		forget := base
		forget.CacheBudget = 1
		got, forgotBack := run(forget)
		sameResults(t, fmt.Sprintf("seed %d, budget 1, no cache dir", seed), want, got)
		if forgotBack.Faults != int64(suiteKeys()) || forgotBack.Evictions != forgotBack.Faults || forgotBack.Spills != 0 || forgotBack.Regens != 0 {
			t.Errorf("seed %d: reading every batch back must rebuild and forget each once, and spill none: %+v", seed, forgotBack)
		}
		if files, err := os.ReadDir(tmp); err != nil || len(files) != 0 {
			t.Errorf("seed %d: a run without a cache dir left %d files under TMPDIR (%v)", seed, len(files), err)
		}

		spill := forget
		spill.CacheDir = cacheDir
		got, spilledBack := run(spill)
		sameResults(t, fmt.Sprintf("seed %d, budget 1, cache dir", seed), want, got)
		if spilledBack.Faults != forgotBack.Faults || spilledBack.Spills != int64(suiteKeys()) || spilledBack.Regens != 0 {
			t.Errorf("seed %d: reading back must rebuild every batch once, spill each once and regenerate none: forget %+v, spill %+v", seed, forgotBack, spilledBack)
		}
		if spilledBack.Evictions != forgotBack.Evictions {
			t.Errorf("seed %d: the tiers disagree on what was evicted: forget %+v, spill %+v", seed, forgotBack, spilledBack)
		}
	}
}

// holdsNothing fails unless d, after a suite run, holds no batch and no
// partial and evicted, spilled, faulted and pinned nothing: every batch
// was dropped at its first draw, and every partial by its last reader,
// which left each entry spent, to be drawn afresh by the next run.
func holdsNothing(t *testing.T, label string, d *Dataset) {
	t.Helper()
	if s := d.Stats(); s.ResidentBytes != 0 || s.Evictions != 0 || s.Spills != 0 || s.SpilledBytes != 0 || s.Faults != 0 || s.Regens != 0 || s.Pinned != 0 {
		t.Errorf("%s: the suite must hold, evict, spill and fault no batch: %+v", label, s)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, fe := range d.flows {
		fe.mu.Lock()
		if fe.batch != nil || fe.elem != nil || len(fe.partials) != 0 || !fe.spent {
			t.Errorf("%s: %v still holds a batch (%v) or %d partials, or is not spent (%v)", label, k, fe.batch != nil, len(fe.partials), fe.spent)
		}
		fe.mu.Unlock()
	}
	if len(d.readers) != 0 {
		t.Errorf("%s: %d keys still have declared takes left", label, len(d.readers))
	}
}

// TestBudgetedFaultsMatchSerial: under a 1-byte budget the suite brings
// no batch back, serially or at -parallel 2, 4 and 8. The days two
// experiments share (Figures 7a/7b and 9 on 28 workdays of ISP-CE and
// IXP-CE, Figure 10 and ablation-vpn on the 7 days of the March week) are
// reduced for both readers at their first draw, whichever experiment
// draws first; nothing else reads a day twice. The fault path itself is
// read after the run: every batch, read back once, is rebuilt and equals a
// fresh generation.
func TestBudgetedFaultsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite eight times")
	}
	for _, seed := range []int64{0, 7} {
		for _, parallel := range []int{1, 2, 4, 8} {
			opts := Options{FlowScale: 0.05, Seed: seed, CacheBudget: 1}
			e := NewEngine(opts)
			if _, err := e.RunMany(context.Background(), nil, parallel); err != nil {
				t.Fatalf("seed %d, parallel %d: %v", seed, parallel, err)
			}
			if got := e.Data().Stats().Faults; got != 0 {
				t.Errorf("seed %d: the suite brought %d batches back at -parallel %d, want 0", seed, got, parallel)
			}
			if back := reread(t, e.Data(), opts); back.Faults != int64(suiteKeys()) {
				t.Errorf("seed %d, parallel %d: reading every batch back faulted %d, want %d", seed, parallel, back.Faults, suiteKeys())
			}
			e.Data().Close()
		}
	}
}

// reread reads every batch d holds back once through the cache
// (Dataset.Reread), checks each against a fresh generation at opts, and
// returns the cache stats after it. A suite run reads no batch twice, so
// this is where a budgeted run's evicted batches come back: rebuilt from
// the source, or mapped from their span.
func reread(t *testing.T, d *Dataset, opts Options) CacheStats {
	t.Helper()
	n, err := d.Reread(NewSyntheticSource(opts))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no batch to read back")
	}
	return d.Stats()
}

// TestReadersSurviveNeighbourRebuilds: a batch a reader holds — pinned, or
// obtained through a pin-less Env and evicted the moment
// it was returned — is never written to again. Eviction drops the cache's
// reference and nothing else, so while four goroutines churn the
// neighbouring days through evict-and-rebuild both batches still equal a
// fresh generation. CI runs this under -race -cpu 1,4.
func TestReadersSurviveNeighbourRebuilds(t *testing.T) {
	opts := Options{FlowScale: 0.02, CacheBudget: 1}
	d := NewDataset(opts)
	defer d.Close()

	pin := d.NewPin()
	defer pin.Release()
	day := DayOf(spillHour).Time()
	pinned, err := d.batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(day)}, pin)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := unpinned(d).flowBatch(synth.ISPCE, day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}

	const neighbours, passes, workers = 12, 3, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for i := 2; i < 2+neighbours; i++ {
					if _, err := unpinned(d).flowBatch(synth.ISPCE, day.AddDate(0, 0, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	s := d.Stats()
	if s.Faults < neighbours || s.Evictions < s.Faults || s.Spills != 0 {
		t.Errorf("the neighbours were not evicted and rebuilt: %+v", s)
	}
	if s.Pinned != 1 || s.ResidentBytes != pinned.HeapBytes() {
		t.Errorf("only the pinned day may be resident: %+v, pinned batch holds %d bytes", s, pinned.HeapBytes())
	}
	if again, err := d.batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(day)}, pin); err != nil || again != pinned {
		t.Errorf("the pinned entry was evicted under its reader (%v)", err)
	}

	fresh := NewSyntheticSource(opts)
	for _, tc := range []struct {
		label string
		day   time.Time
		got   *flowrec.Batch
	}{
		{"pinned", day, pinned},
		{"pin-less", day.AddDate(0, 0, 1), loose},
	} {
		want, err := fresh.FlowBatch(synth.ISPCE, tc.day)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got.Len() == 0 || !want.Project(tc.got.Columns()).Equal(tc.got) {
			t.Errorf("the %s batch changed while its neighbours were rebuilt", tc.label)
		}
	}
}

// samplingSource calls sample before every batch it builds.
type samplingSource struct {
	FlowSource
	sample func()
}

func (s samplingSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	s.sample()
	return s.FlowSource.FlowBatch(vp, hour)
}

func (s samplingSource) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	s.sample()
	return s.FlowSource.VPNFlowBatch(vp, hour)
}

func (s samplingSource) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	s.sample()
	return s.FlowSource.ComponentFlowBatch(vp, name, hour)
}

// pinnedBytes sums the resident bytes of the entries a pin currently
// holds. Only meaningful while no other goroutine uses the dataset.
func pinnedBytes(d *Dataset) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, fe := range d.flows {
		if fe.pins.Load() > 0 {
			n += fe.heapBytes
		}
	}
	return n
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

// TestCacheBudgetBoundsResidentBytes: the CLI's default budget is a bound,
// not a hint. A suite run holds no batch, so every build during it reads
// 0 resident bytes; the bound is read where batches are linked, on reading
// every batch back. At -parallel 1 every build is a quiescent point — each
// earlier access has finished enforcing the budget — so there the ledger
// must read at most the budget plus what is pinned; the read-back must
// actually be evicting for that to mean anything, and once it is done the
// cache fits the budget. Each batch read back equals a fresh generation.
func TestCacheBudgetBoundsResidentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice at a scale that exceeds the budget")
	}
	const budget = 16 << 20
	// Scale 1, not the CLI's 0.5: with 59 B rows the smaller suite fits 16 MB
	// so nearly that reading it back might evict too little to tell.
	opts := Options{FlowScale: 1, CacheBudget: budget}
	for _, parallel := range []int{1, 4} {
		e := NewEngine(opts)
		d := e.Data()
		var samples int
		var peak int64
		if parallel == 1 {
			d.src = samplingSource{d.src, func() {
				samples++
				s := d.Stats()
				peak = max(peak, s.ResidentBytes)
				if limit := budget + pinnedBytes(d); s.ResidentBytes > limit {
					t.Errorf("sample %d: %d bytes resident, over the budget plus the %d pinned bytes", samples, s.ResidentBytes, limit-budget)
				}
			}}
		}
		if _, err := e.RunAll(context.Background(), parallel); err != nil {
			t.Fatal(err)
		}
		holdsNothing(t, fmt.Sprintf("parallel %d, budget 16M", parallel), d)
		if parallel == 1 && (samples != suiteKeys() || peak != 0) {
			t.Errorf("the suite drew %d batches with a peak of %d resident bytes, want %d and 0", samples, peak, suiteKeys())
		}
		// Read back once, at -parallel 1, where every rebuild is sampled
		// against the bound.
		if parallel == 1 {
			back := reread(t, d, opts)
			if back.Faults != int64(suiteKeys()) || back.Evictions == 0 || back.ResidentBytes > budget || back.Spills != 0 {
				t.Errorf("reading every batch back must rebuild each and evict within the budget: %+v", back)
			}
			if samples != 2*suiteKeys() || peak < budget/2 {
				t.Errorf("%d samples with a peak of %d resident bytes: the bound was not exercised", samples, peak)
			}
		}
		d.Close()
	}
}

// TestSuiteHoldsNoBatch: at -cache-budget 0, the wire modes' default,
// where a linked batch would stay resident to the end, a suite run reads
// 0 resident bytes whenever it draws a batch, at -parallel 1 and 4, and
// ends holding no batch and no partial, having evicted, spilled and
// faulted nothing. A second run on the same engine does the same: it
// draws each key once more, and its results equal the first run's.
func TestSuiteHoldsNoBatch(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		e := NewEngine(Options{FlowScale: 0.05})
		d := e.Data()
		var samples atomic.Int64
		d.src = samplingSource{d.src, func() {
			samples.Add(1)
			if s := d.Stats(); s.ResidentBytes != 0 {
				t.Errorf("parallel %d: %d bytes resident at a draw", parallel, s.ResidentBytes)
			}
		}}
		var first []*Result
		for run := 1; run <= 2; run++ {
			rs, err := e.RunAll(context.Background(), parallel)
			if err != nil {
				t.Fatal(err)
			}
			if n := samples.Load(); n != int64(run*suiteKeys()) {
				t.Errorf("parallel %d, run %d: %d draws in all, want one a run for each of the %d keys", parallel, run, n, suiteKeys())
			}
			holdsNothing(t, fmt.Sprintf("parallel %d, budget 0, run %d", parallel, run), d)
			if run == 1 {
				first = rs
			} else {
				sameResults(t, fmt.Sprintf("parallel %d, second run", parallel), first, rs)
			}
		}
		d.Close()
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

// BenchmarkRetouch is the evidence the disk tier is judged on: four weeks
// of dense ISP-CE days — about three times the 16 MB budget, walked in
// order so every re-read finds its day evicted — read k times, with evicted
// batches forgotten and rebuilt (no cache dir) or written to a span once
// and mapped back (cache dir under TMPDIR; point that at a tmpfs to take
// the disk out of the number). Forgetting
// costs k generations a day, the tier one generation, one write and one
// fault; the suite itself holds none of its 201 batches past their first
// draw (a day two experiments share is reduced for both there).
func BenchmarkRetouch(b *testing.B) {
	const days = 4 * 7
	start := time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC)
	for _, k := range []int{1, 2, 4, 8} {
		for _, tier := range []string{"forget", "spill"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, tier), func(b *testing.B) {
				opts := Options{FlowScale: 2, CacheBudget: 16 << 20}
				if tier == "spill" {
					opts.CacheDir = b.TempDir()
				}
				var stats CacheStats
				for i := 0; i < b.N; i++ {
					d := NewDataset(opts)
					for pass := 0; pass < k; pass++ {
						for day := 0; day < days; day++ {
							if _, err := unpinned(d).flowBatch(synth.ISPCE, start.AddDate(0, 0, day)); err != nil {
								b.Fatal(err)
							}
						}
					}
					stats = d.Stats()
					d.Close()
				}
				// A mapped view costs the heap ledger almost nothing, so the
				// tier faults each spilled day once and then keeps serving
				// it; only forgetting pays for every re-read.
				if want := int64((k - 1) * days); tier == "forget" && stats.Faults != want {
					b.Fatalf("%d faults, want every re-read to miss: %d", stats.Faults, want)
				}
				b.ReportMetric(float64(stats.Faults), "faults/op")
				b.ReportMetric(float64(stats.Spills), "spills/op")
			})
		}
	}
}
