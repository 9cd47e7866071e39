package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

// Dataset is the memoized input layer of an engine. Every input an
// experiment can consume — generators, VPN-detection datasets, hourly
// volume series and per-day flow samples — is produced at most once per
// key and shared across experiments. One Dataset serves exactly one
// Options value, so a key names the input alone: the vantage point for a
// model, a FlowKey for a flow batch, a range for a series.
//
// Flow batches, one per FlowKey, are drawn from the dataset's FlowSource:
// by default its own model, projected to each kind's columns, or — via
// NewDatasetWithSource — any other implementation, e.g. the wire-replay
// bridge that serves the same batches off live NetFlow/IPFIX export.
// Volume series always come from the local generator model; only the
// flow-record path is sourced.
//
// An experiment never holds a batch: it reads each of its days as a
// reduction (reads.go). A key's entry is a once, its partials and a spent
// mark: the first draw runs, inside the once, every reduction the run
// declared on the key, keeps the partials and drops the batch; the last
// take of each partial drops it, and the take that leaves no partial
// spends the entry, so the next ask draws the key afresh. A suite run thus
// draws each key once and holds no batch past that draw.
//
// Concurrency: a per-key entry is installed under a short mutex and the
// draw runs inside the entry's sync.Once, so concurrent readers of a key
// block only on that key while other keys generate in parallel. Cached
// values are immutable by convention: callers must not modify returned
// slices or call mutating methods (e.g. synth.Generator.SetVPNGateways)
// on shared instances.
type Dataset struct {
	model  *SyntheticSource // generator and VPN data per vantage point
	src    FlowSource       // model unless NewDatasetWithSource named another
	tracer *obs.Tracer

	mu      sync.Mutex
	flows   map[FlowKey]*flowEntry
	series  map[seriesKey]*memo[*timeseries.Series]
	offsets map[FlowKey]*memo[[]int] // hourRows' row offsets, per key asked

	readers  map[FlowKey][]reader             // the reductions declared on each key, with their takes left (declare, take)
	reducers map[*reduction]*memo[reduceFunc] // each reduction's function, built once
	taken    func(FlowKey, *reduction, any)   // when set, sees every partial a reader takes (tests)

	// Cache instruments: one count per memoized lookup — a model part, a
	// series range, a flow key — a miss when the lookup installed the
	// value. These are the single source of truth for both
	// CacheStats and the lockdown_cache_* metric families: Stats() reads
	// the same counters a /metrics scrape does, so the stderr summary
	// and the exposition can never disagree. With Options.Obs unset the
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

// flowEntry is the cache slot of one flow key: the first ask draws the
// batch inside once (fill), which keeps the partials and drops the batch.
type flowEntry struct {
	key  FlowKey
	once sync.Once
	err  error // the draw failed

	// partials are the reductions of the batch its first draw ran, by
	// reduction, guarded by Dataset.mu: set at the end of the draw (nil
	// before), then each deleted by the last take its declared readers
	// make, by the take of an undeclared one (Dataset.take), or by the
	// withdrawal of its last declared take (Dataset.withdraw).
	partials map[*reduction]any

	// spent, guarded by Dataset.mu: the entry holds no partial, or its
	// draw failed, so the next ask installs a fresh entry in its place
	// (Dataset.entry), whose first draw runs the reductions declared by
	// then.
	spent bool

	// rows and cols of the batch as the source delivered it, for the
	// batch accounting (drawnSet).
	rows int
	cols flowrec.Columns
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
		flows:    make(map[FlowKey]*flowEntry),
		series:   make(map[seriesKey]*memo[*timeseries.Series]),
		offsets:  make(map[FlowKey]*memo[[]int]),
		readers:  make(map[FlowKey][]reader),
		reducers: make(map[*reduction]*memo[reduceFunc]),
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

// entry returns the cache entry of k, counting the lookup, and draws the
// batch on the first ask (fill) for the reduction asked. A failed draw
// spends the entry. An ask of a spent entry replaces it with a fresh one,
// drawn again; the lookup still counts as a hit, since the key stays
// memoized.
func (d *Dataset) entry(k FlowKey, asked *reduction) (*flowEntry, error) {
	d.mu.Lock()
	fe, ok := d.flows[k]
	if !ok || fe.spent {
		fe = &flowEntry{key: k}
		d.flows[k] = fe
	}
	d.mu.Unlock()
	d.count(!ok)
	fe.once.Do(func() {
		if fe.err = d.fill(fe, asked); fe.err != nil {
			d.mu.Lock()
			fe.spent = true // the next ask draws the key again
			d.mu.Unlock()
		}
	})
	return fe, fe.err
}

// fill is the first draw of an entry, run inside its once: it asks the
// flow source for the batch, runs every reduction declared on the key
// (declare), and the one asked for if it was not declared, on it, keeps
// the partials and drops the batch; only its rows and columns stay, for
// the batch accounting. A reduction the caller did not ask for runs in a
// "reduce" trace span naming its owner and the key, so the time one
// experiment spends folding a day for another shows as such.
func (d *Dataset) fill(fe *flowEntry, asked *reduction) error {
	b, err := d.draw(fe.key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	rs := make([]*reduction, 0, len(d.readers[fe.key])+1)
	for _, x := range d.readers[fe.key] {
		rs = append(rs, x.r)
	}
	d.mu.Unlock()
	if !slices.Contains(rs, asked) {
		rs = append(rs, asked)
	}
	partials := make(map[*reduction]any, len(rs))
	for _, r := range rs {
		var sp obs.Span
		if r != asked {
			sp = d.tracer.Start("reduce", "scan")
		}
		p, err := d.reduce(r, fe.key, b)
		if sp.Active() {
			sp.EndArgs(map[string]any{"owner": r.owner, "key": fe.key.String()})
		}
		if err != nil {
			return err
		}
		partials[r] = p
	}
	fe.rows, fe.cols = b.Len(), b.Columns()
	// Keep no partial whose declared takes were all withdrawn meanwhile.
	d.mu.Lock()
	for r := range partials {
		if r != asked && !slices.ContainsFunc(d.readers[fe.key], func(x reader) bool { return x.r == r }) {
			delete(partials, r)
		}
	}
	fe.partials = partials
	d.mu.Unlock()
	return nil
}

// draw asks the flow source for the batch k names, which must hold at
// least k's columns. Nothing keeps it: fill reduces and drops it, and the
// tests that need a batch call draw directly.
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
// memoizes one value and none is ever removed, so Entries is the miss
// count.
func (d *Dataset) Stats() CacheStats {
	s := CacheStats{Hits: d.hits.Value(), Misses: d.misses.Value()}
	s.Entries = int(s.Misses)
	return s
}

// drawnSet is the distinct flow-batch entries one experiment's
// declared-read pass took, with their summed size, rows × the width of the
// columns each entry stores: what MetricBatchMB reports. Being a set it
// reads the same however the pass was scheduled.
type drawnSet struct {
	mu    sync.Mutex
	seen  map[*flowEntry]struct{}
	bytes int64
}

func (s *drawnSet) add(fe *flowEntry) {
	s.mu.Lock()
	if _, ok := s.seen[fe]; !ok {
		s.seen[fe] = struct{}{}
		s.bytes += int64(fe.rows) * int64(fe.cols.RowBytes())
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
