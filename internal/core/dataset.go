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

// Dataset is the memoized input layer of an engine: the model of each
// vantage point — its generator and VPN-detection data — and hourly volume
// series, each produced at most once per key and shared across experiments
// and runs. One Dataset serves exactly one Options value, so a key names
// the input alone: the vantage point for a model, a range for a series.
//
// It caches nothing of the flow path. The rows of a FlowKey come from the
// dataset's FlowSource: by default its own model, which streams them in
// the kind's columns without building the day, or — via
// NewDatasetWithSource — any other implementation, e.g. the wire-replay
// bridge that serves the same day batches off live NetFlow/IPFIX export.
// A run plans its reads (readPlan, reads.go) and streams each key once
// inside the plan through fold functions the plan builds (Dataset.stream);
// the plan dies with the run. Volume series always come from the local
// generator model; only the flow-record path is sourced.
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

	mu     sync.Mutex
	series map[seriesKey]*memo[*timeseries.Series]
	taken  func(FlowKey, *reduction, any) // when set, sees every partial a reader takes (tests)
	filled func(FlowKey)                  // when set, sees every key a plan streams (tests)

	// Cache instruments: every memo lookup — a model part or a series
	// range, whoever asks — counts one miss when it built the value and one
	// hit otherwise. These are the single source of truth for both
	// CacheStats and the lockdown_cache_* metric families: Stats() reads
	// the same counters a /metrics scrape does, so the stderr summary and
	// the exposition can never disagree. With Options.Obs unset the
	// counters are standalone atomics — same cost, nothing exported.
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
// checks each batch's row count and one of its hours against its own
// model.
func NewDatasetWithSource(opts Options, src FlowSource) *Dataset {
	reg := opts.Obs
	d := &Dataset{
		tracer: opts.Tracer,
		series: make(map[seriesKey]*memo[*timeseries.Series]),
		hits:   reg.Counter("lockdown_cache_hits_total", "Dataset cache key lookups that found an entry."),
		misses: reg.Counter("lockdown_cache_misses_total", "Dataset cache key lookups that installed a new entry."),
	}
	d.model = NewSyntheticSource(opts)
	d.model.count = d.count
	if src == nil {
		src = d.model
	}
	d.src = src
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

// draw asks the flow source for the batch k names, which must hold at
// least k's columns. Nothing keeps it: a foreign source's batch is split
// into its hours and folded (stream), and the tests that need a batch call
// draw directly.
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

// Stats returns the cache's hit and miss counters.
func (d *Dataset) Stats() CacheStats {
	return CacheStats{Hits: d.hits.Value(), Misses: d.misses.Value()}
}

// stream hands the rows of k to fold piece by piece, in hour order, each
// piece within the hour of day fold is given, and returns how many rows
// there were and the columns they store. From the dataset's own model no
// day batch is built: the generator streams the rows an hour at a time
// through one scratch (synth.Generator.ComponentStream). Any other source
// returns the day's batch, which split cuts into its hours.
func (d *Dataset) stream(k FlowKey, fold func(hour int, piece *flowrec.Batch)) (int, flowrec.Columns, error) {
	if d.src == FlowSource(d.model) {
		rows, err := d.model.stream(k, fold)
		return rows, k.Columns(), err
	}
	b, err := d.draw(k)
	if err != nil {
		return 0, 0, err
	}
	if err := d.split(k, b, fold); err != nil {
		return 0, 0, err
	}
	return b.Len(), b.Columns(), nil
}

// split hands b, the batch k names, to fold an hour at a time. A key's
// batch is its hours sampled in hour order, so an hour's rows are
// contiguous, and where they lie follows from the model's row count of
// each hour. Every source delivers the model's rows (the replay bridge
// checks each bucket's row count against these counts), so the counts
// hold for any source's batch; a batch
// whose length disagrees with them is an error, and nothing is folded.
func (d *Dataset) split(k FlowKey, b *flowrec.Batch, fold func(hour int, piece *flowrec.Batch)) error {
	counts, err := d.model.HourFlows(k)
	if err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != b.Len() {
		return fmt.Errorf("core: %s has %d rows, its model's hours %d", k, b.Len(), total)
	}
	from, _ := k.Hours()
	lo := 0
	for i, n := range counts {
		if n > 0 {
			fold(from+i, b.Slice(lo, lo+n))
		}
		lo += n
	}
	return nil
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
