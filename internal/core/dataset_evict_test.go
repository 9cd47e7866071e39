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

// TestEvictionForgetsWithoutCacheDir: under a 1-byte budget every flow
// batch is evicted as soon as its pin releases. Without a cache directory
// it is forgotten and rebuilt on its next access; with one it round-trips
// a span. Either way all 21 results equal the unbudgeted run's, the same
// entries come back the same number of times, and only the run that named
// a directory touches the disk: the other one spills nothing and leaves an
// empty TMPDIR empty.
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
			return rs, e.Data().Stats()
		}
		base := Options{FlowScale: 0.05, Seed: seed}
		want, unbounded := run(base)
		if len(want) != 21 {
			t.Fatalf("%d results, want the 21 experiments", len(want))
		}
		if unbounded.Evictions != 0 || unbounded.Faults != 0 {
			t.Errorf("seed %d: an unbudgeted run must not evict: %+v", seed, unbounded)
		}

		forget := base
		forget.CacheBudget = 1
		got, forgot := run(forget)
		sameResults(t, fmt.Sprintf("seed %d, budget 1, no cache dir", seed), want, got)
		if forgot.Spills != 0 || forgot.SpilledBytes != 0 || forgot.Regens != 0 {
			t.Errorf("seed %d: without a cache dir nothing may spill, and a rebuild is not a damaged span: %+v", seed, forgot)
		}
		if forgot.Evictions == 0 || forgot.Faults == 0 || forgot.ResidentBytes != 0 {
			t.Errorf("seed %d: a 1-byte budget must evict every batch and rebuild the re-touched ones: %+v", seed, forgot)
		}
		if files, err := os.ReadDir(tmp); err != nil || len(files) != 0 {
			t.Errorf("seed %d: a run without a cache dir left %d files under TMPDIR (%v)", seed, len(files), err)
		}

		spill := forget
		spill.CacheDir = cacheDir
		got, spilled := run(spill)
		sameResults(t, fmt.Sprintf("seed %d, budget 1, cache dir", seed), want, got)
		if spilled.Spills == 0 || spilled.Regens != 0 {
			t.Errorf("seed %d: with a cache dir every evicted batch is written once: %+v", seed, spilled)
		}
		if spilled.Faults != forgot.Faults || spilled.Evictions != forgot.Evictions {
			t.Errorf("seed %d: the tiers disagree on what was evicted and brought back: forget %+v, spill %+v", seed, forgot, spilled)
		}
	}
}

// TestBudgetedFaultsMatchSerial: under a 1-byte budget a batch comes back
// exactly when a later chunk or experiment reads it again, so the serial
// run's fault count is a property of the suite (35 re-reads of its
// suiteKeys batches: fig9 reads again the 28 workdays of ISP-CE (13, Easter
// falls in its third week) and IXP-CE (15) that fig7a and fig7b drew, and
// ablation-vpn the 7 days of fig10's March week) and the scheduler may not
// add to it: no goroutine
// touches a batch ahead of the scan that reads it, and a fresh batch is
// pinned by its first reader before eviction can see it. How many re-reads a
// parallel run of the whole suite saves is a property of the schedule —
// experiments that share weeks (fig7a/fig7b with fig9, fig10 with
// ablation-vpn) may overlap and read one resident batch together — so
// there the count can only be lower. The scheduler's own contribution is
// read where no batch is shared at all: five experiments over disjoint
// batches fault nothing serially, so any fault at -parallel 2, 4 or 8 is a
// rebuild the scheduler added.
func TestBudgetedFaultsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite six times")
	}
	disjoint := []string{"fig7a", "fig7b", "fig8", "fig10", "fig12"}
	for _, seed := range []int64{0, 7} {
		faults := func(ids []string, parallel int) int64 {
			t.Helper()
			e := NewEngine(Options{FlowScale: 0.05, Seed: seed, CacheBudget: 1})
			defer e.Data().Close()
			if _, err := e.RunMany(context.Background(), ids, parallel); err != nil {
				t.Fatalf("seed %d, parallel %d: %v", seed, parallel, err)
			}
			return e.Data().Stats().Faults
		}
		serial := faults(nil, 1)
		if serial != 35 {
			t.Errorf("seed %d: the serial suite re-reads %d batches, want 35", seed, serial)
		}
		for _, parallel := range []int{2, 4} {
			if got := faults(nil, parallel); got > serial {
				t.Errorf("seed %d: %d faults at -parallel %d, more than the serial %d", seed, got, parallel, serial)
			}
		}
		for _, parallel := range []int{1, 2, 4, 8} {
			if got := faults(disjoint, parallel); got != 0 {
				t.Errorf("seed %d: %v share no batch and faulted %d at -parallel %d, want 0", seed, disjoint, got, parallel)
			}
		}
	}
}

// TestReadersSurviveNeighbourRebuilds: a batch a reader holds — pinned, or
// obtained through the pin-less Dataset.FlowBatch and evicted the moment
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
	pinned, err := pin.Batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(day)})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := d.FlowBatch(synth.ISPCE, day.AddDate(0, 0, 1))
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
					if _, err := d.FlowBatch(synth.ISPCE, day.AddDate(0, 0, i)); err != nil {
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
	if again, err := pin.Batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(day)}); err != nil || again != pinned {
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

// suiteKeys is the number of distinct flow batches one suite run draws,
// counted by kind over the keys a run leaves in the cache, one UTC day
// each: 103 flows/ days (EDU 31, Figure 12's sampled days; ISP-CE 21 and
// IXP-CE 21, the three weeks of Figures 7a/7b and 9; IXP-SE 15 and IXP-US
// 15, Figure 9's workdays, the only days it reads), 21 vpn-flows/ days of
// the IXP-CE (Figure 10's three weeks) and 77 component-flows/ days of the
// IXP-SE gaming component (Figure 8's weeks 7-17). TestKeyCensus derives
// the same counts reader by reader.
const suiteKeys = 103 + 21 + 77

// TestCacheBudgetBoundsResidentBytes: the CLI's default budget is a bound,
// not a hint. At -parallel 1 every build is a quiescent point — each
// earlier access has finished enforcing the budget — so there the ledger
// must read at most the budget plus what running chunks have pinned; the
// walk must actually be evicting for that to mean anything, and once the
// suite is done and every pin is released the cache fits the budget at
// any parallelism.
func TestCacheBudgetBoundsResidentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice at a scale that exceeds the budget")
	}
	const budget = 16 << 20
	// Scale 1, not the CLI's 0.5: with 59 B rows the smaller suite fits 16 MB
	// so nearly that a -parallel 4 run may never read an evicted batch back.
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
		s := d.Stats()
		if s.Budget != budget || s.ResidentBytes > budget || s.Pinned != 0 {
			t.Errorf("parallel %d: after the run %d bytes resident under a %d-byte budget, %d pinned", parallel, s.ResidentBytes, s.Budget, s.Pinned)
		}
		if s.Evictions == 0 || s.Faults == 0 || s.Spills != 0 {
			t.Errorf("parallel %d: scale 1 must not fit 16 MB, and nothing may spill: %+v", parallel, s)
		}
		if parallel == 1 && (samples < suiteKeys || peak < budget/2) {
			t.Errorf("%d samples with a peak of %d resident bytes: the bound was not exercised", samples, peak)
		}
		d.Close()
	}
}

// TestFig12CountsWhereItReads pins Figure 12 to the computation it
// replaced: one concatenated flow batch per sampled day, counted whole.
// Counting each cached day on its own and merging the partial counts
// must give the same median growth bit for bit, at seeds 0 and 7 and
// whether a chunk is one day or seven.
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

		for _, chunk := range []int{1, 7} {
			opts.ScanChunk = chunk
			res := run(t, "fig12", opts)
			for _, c := range cats {
				want := growth.MedianGrowthAfter(c.Name, calendar.EDUClosure)
				if got := res.Metric(c.Name); want == 0 || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("seed %d, chunk %d: %s = %v, whole-day counting gives %v", seed, chunk, c.Name, got, want)
				}
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
// fault; the suite itself re-reads 35 of its 201 batches, k = 1.17.
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
							if _, err := d.FlowBatch(synth.ISPCE, start.AddDate(0, 0, day)); err != nil {
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
