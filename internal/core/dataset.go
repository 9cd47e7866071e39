package core

import (
	"fmt"
	"sync"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

// Dataset is the memoized input layer of an engine. Every input an
// experiment can consume — generators, VPN-detection datasets and hourly
// volume series — is produced at most once per key and shared across
// experiments and runs. One Dataset serves exactly one Options value, so a
// key names the input alone: the vantage point for a model, a range for a
// series.
//
// Flow batches, one per FlowKey, are drawn from the dataset's FlowSource:
// by default its own model, projected to each kind's columns, or — via
// NewDatasetWithSource — any other implementation, e.g. the wire-replay
// bridge that serves the same batches off live NetFlow/IPFIX export.
// Volume series always come from the local generator model; only the
// flow-record path is sourced.
//
// The dataset holds no flow batch and no partial: a run plans its reads
// (readPlan, reads.go), draws each key once inside the plan and drops the
// batch there, and the plan dies with the run. What the dataset keeps of
// the flow path is what any run may reuse: each reduction's function, the
// row offsets of the hours Figure 9 cuts (hourRows) and the set of keys
// ever drawn, which the cache counters book.
//
// Concurrency: a memo is installed under a short mutex and built inside
// its sync.Once, so concurrent readers of a key block only on that key
// while other keys build in parallel. Cached values are immutable by
// convention: callers must not modify returned slices or call mutating
// methods (e.g. synth.Generator.SetVPNGateways) on shared instances.
type Dataset struct {
	model  *SyntheticSource // generator and VPN data per vantage point
	src    FlowSource       // model unless NewDatasetWithSource named another
	tracer *obs.Tracer

	mu       sync.Mutex
	series   map[seriesKey]*memo[*timeseries.Series]
	offsets  map[FlowKey]*memo[[]int]         // hourRows' row offsets, per key asked
	reducers map[*reduction]*memo[reduceFunc] // each reduction's function, built once
	drawn    map[FlowKey]struct{}             // the flow keys ever drawn, for their misses (countTake)
	taken    func(FlowKey, *reduction, any)   // when set, sees every partial a reader takes (tests)

	// Cache instruments: one count per memoized lookup — a model part, a
	// series range, a flow key's take — a miss when the lookup installed
	// the value or drew the key for the first time. These are the single
	// source of truth for both CacheStats and the lockdown_cache_* metric
	// families: Stats() reads the same counters a /metrics scrape does, so
	// the stderr summary and the exposition can never disagree. With
	// Options.Obs unset the counters are standalone atomics — same cost,
	// nothing exported.
	hits   *obs.Counter
	misses *obs.Counter
}

// seriesKey names a memoized hourly series over a range: the total volume
// (the whole study window, or a range outside it) or one class's.
type seriesKey struct {
	vp       synth.VantagePoint
	class    synth.Class
	from, to Hour
}

// NewDataset returns an empty dataset cache for the given options, backed
// by the in-process synthetic generator.
func NewDataset(opts Options) *Dataset {
	return NewDatasetWithSource(opts, nil)
}

// NewDatasetWithSource returns an empty dataset cache whose flow batches
// are drawn from src (nil selects the dataset's own model). The source
// must produce batches bit-identical to the generator at the same options
// for the suite's determinism guarantees to hold; the replay bridge
// verifies this per batch.
func NewDatasetWithSource(opts Options, src FlowSource) *Dataset {
	reg := opts.Obs
	d := &Dataset{
		tracer:   opts.Tracer,
		series:   make(map[seriesKey]*memo[*timeseries.Series]),
		offsets:  make(map[FlowKey]*memo[[]int]),
		reducers: make(map[*reduction]*memo[reduceFunc]),
		drawn:    make(map[FlowKey]struct{}),
		hits:     reg.Counter("lockdown_cache_hits_total", "Dataset cache key lookups that found an entry."),
		misses:   reg.Counter("lockdown_cache_misses_total", "Dataset cache key lookups that installed a new entry."),
	}
	d.model = NewSyntheticSource(opts)
	d.model.count = d.count
	if src == nil {
		src = d.model
	}
	d.src = src
	// Registration is get-or-create by name, so with several datasets on
	// one registry (tests) the first one's snapshot wins; the CLI runs
	// exactly one dataset per process.
	reg.GaugeFunc("lockdown_cache_entries", "Memoized dataset cache keys (generators, series, flow batches).",
		func() float64 { return float64(d.Stats().Entries) })
	return d
}

// count books one memoized lookup.
func (d *Dataset) count(miss bool) {
	if miss {
		d.misses.Add(1)
	} else {
		d.hits.Add(1)
	}
}

// countTake books one take of k: a miss for the key's first draw in the
// dataset's life (drew: the take drew the key), a hit for every other,
// including a later run's draw of the key.
func (d *Dataset) countTake(k FlowKey, drew bool) {
	first := false
	if drew {
		d.mu.Lock()
		if _, ok := d.drawn[k]; !ok {
			d.drawn[k], first = struct{}{}, true
		}
		d.mu.Unlock()
	}
	d.count(first)
}

// draw asks the flow source for the batch k names, which must hold at
// least k's columns. Nothing keeps it: a run's plan reduces and drops it
// (readPlan.fill), and the tests that need a batch call draw directly.
func (d *Dataset) draw(k FlowKey) (*flowrec.Batch, error) {
	b, err := fetch(d.src, k)
	if err == nil {
		err = b.Require(k.Columns())
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Close does nothing: the dataset holds no file and no mapping. Read by
// bench/ until ROADMAP item 4(a).
func (d *Dataset) Close() error { return nil }

// Stats returns the cache's entry and hit/miss counters. Every miss
// memoizes one value or books one key's first draw, and none is ever
// removed, so Entries is the miss count.
func (d *Dataset) Stats() CacheStats {
	s := CacheStats{Hits: d.hits.Value(), Misses: d.misses.Value()}
	s.Entries = int(s.Misses)
	return s
}

// drawnSet is the distinct keys one experiment's declared-read pass took,
// with their summed batch size, rows × the width of the columns each
// batch stores: what MetricBatchMB reports. Being a set it reads the same
// however the pass was scheduled.
type drawnSet struct {
	mu    sync.Mutex
	seen  map[*planSlot]struct{}
	bytes int64
}

func (s *drawnSet) add(ps *planSlot) {
	s.mu.Lock()
	if _, ok := s.seen[ps]; !ok {
		s.seen[ps] = struct{}{}
		s.bytes += int64(ps.rows) * int64(ps.cols.RowBytes())
	}
	s.mu.Unlock()
}

// batchMB is the drawn rows at their stored size, in MiB.
func (s *drawnSet) batchMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.bytes) / (1 << 20)
}

// hourRows returns the rows [lo, hi) that hold the hours-of-day [from, to)
// in b, the batch k names. A key's batch is its hours sampled in hour
// order, so an hour's rows are contiguous, and where they lie follows from
// the model's row count of each hour, computed on the first ask per key.
// Every source delivers the model's rows (the replay bridge verifies each
// one), so the offsets hold for any source's batch; a batch whose length
// disagrees with them, or hours outside the key's window (FlowKey.Hours),
// are an error.
func (d *Dataset) hourRows(k FlowKey, b *flowrec.Batch, from, to int) (lo, hi int, err error) {
	w0, w1 := k.Hours()
	if from < w0 || to > w1 || from > to {
		return 0, 0, fmt.Errorf("core: hours [%d, %d) of %s are outside its window [%d, %d)", from, to, k, w0, w1)
	}
	d.mu.Lock()
	m := d.offsets[k]
	if m == nil {
		m = new(memo[[]int])
		d.offsets[k] = m
	}
	d.mu.Unlock()
	offs, err := m.get(nil, func() ([]int, error) {
		counts, err := d.model.hourFlows(k)
		if err != nil {
			return nil, err
		}
		offs := make([]int, len(counts)+1)
		for i, n := range counts {
			offs[i+1] = offs[i] + n
		}
		return offs, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if total := offs[len(offs)-1]; total != b.Len() {
		return 0, 0, fmt.Errorf("core: %s has %d rows, its model's hours %d", k, b.Len(), total)
	}
	return offs[from-w0], offs[to-w0], nil
}

// Generator returns the shared generator of a vantage point. The instance
// is safe for concurrent read-only use; never call its mutating methods.
func (d *Dataset) Generator(vp synth.VantagePoint) (*synth.Generator, error) {
	return d.model.Generator(vp)
}

// VPN returns the shared VPN-detection dataset of a vantage point.
func (d *Dataset) VPN(vp synth.VantagePoint) (*VPNData, error) { return d.model.VPN(vp) }

// rangeSeries memoizes one generated series under its range key.
func (d *Dataset) rangeSeries(k seriesKey, gen func(*synth.Generator) *timeseries.Series) (*timeseries.Series, error) {
	d.mu.Lock()
	m := d.series[k]
	if m == nil {
		m = new(memo[*timeseries.Series])
		d.series[k] = m
	}
	d.mu.Unlock()
	return m.get(d.count, func() (*timeseries.Series, error) {
		g, err := d.Generator(k.vp)
		if err != nil {
			return nil, err
		}
		s := gen(g)
		// Sort before the series is shared. The generator's builders add in
		// time order, so this is a no-op for them; it stays as the guard
		// for any builder that does not.
		s.Points()
		return s, nil
	})
}

// Series returns the hourly total-volume series of [from, to). Ranges
// inside the study window are sliced from one memoized series of the whole
// window, in O(log n), as views that share its points (an Add to a view
// reallocates it, so callers may append to what they get); anything else
// is generated (and memoized) directly. Values are identical either way
// because the generator is a pure function of its configuration.
func (d *Dataset) Series(vp synth.VantagePoint, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	genFrom, genTo := from, to
	if !from.Before(calendar.StudyStart) && !to.After(calendar.StudyEnd) {
		genFrom, genTo = calendar.StudyStart, calendar.StudyEnd
	}
	s, err := d.rangeSeries(seriesKey{vp: vp, from: HourOf(genFrom), to: HourOf(genTo)}, func(g *synth.Generator) *timeseries.Series {
		return g.TotalSeries(genFrom, genTo)
	})
	if err != nil {
		return nil, err
	}
	return s.Slice(from, to), nil
}

// ClassSeries returns the hourly series of one traffic class over [from,
// to), memoized by range.
func (d *Dataset) ClassSeries(vp synth.VantagePoint, class synth.Class, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	return d.rangeSeries(seriesKey{vp: vp, class: class, from: HourOf(from), to: HourOf(to)}, func(g *synth.Generator) *timeseries.Series {
		return g.ClassSeries(class, from, to)
	})
}
