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
// It caches nothing of the flow path. Flow batches, one per FlowKey, are
// drawn from the dataset's FlowSource: by default its own model, projected
// to each kind's columns, or — via NewDatasetWithSource — any other
// implementation, e.g. the wire-replay bridge that serves the same batches
// off live NetFlow/IPFIX export. A run plans its reads (readPlan,
// reads.go), draws each key once inside the plan, reduces the batch with
// functions the plan builds and drops it; the plan dies with the run.
// Volume series always come from the local generator model; only the
// flow-record path is sourced.
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
// verifies this per batch.
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

// Stats returns the cache's hit and miss counters.
func (d *Dataset) Stats() CacheStats {
	return CacheStats{Hits: d.hits.Value(), Misses: d.misses.Value()}
}

// hourRows returns the rows [lo, hi) of b, the batch k names, that hold
// each range of hours-of-day [from, to) in hours, in order. A key's batch
// is its hours sampled in hour order, so an hour's rows are contiguous,
// and where they lie follows from the model's row count of each hour,
// computed once per call. Every source delivers the model's rows (the
// replay bridge verifies each one), so the offsets hold for any source's
// batch; a batch whose length disagrees with them, or hours outside the
// key's window (FlowKey.Hours), are an error.
func (d *Dataset) hourRows(k FlowKey, b *flowrec.Batch, hours ...[2]int) ([][2]int, error) {
	w0, w1 := k.Hours()
	for _, h := range hours {
		if h[0] < w0 || h[1] > w1 || h[0] > h[1] {
			return nil, fmt.Errorf("core: hours [%d, %d) of %s are outside its window [%d, %d)", h[0], h[1], k, w0, w1)
		}
	}
	counts, err := d.model.hourFlows(k)
	if err != nil {
		return nil, err
	}
	offs := make([]int, len(counts)+1)
	for i, n := range counts {
		offs[i+1] = offs[i] + n
	}
	if total := offs[len(offs)-1]; total != b.Len() {
		return nil, fmt.Errorf("core: %s has %d rows, its model's hours %d", k, b.Len(), total)
	}
	rows := make([][2]int, len(hours))
	for i, h := range hours {
		rows[i] = [2]int{offs[h[0]-w0], offs[h[1]-w0]}
	}
	return rows, nil
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
