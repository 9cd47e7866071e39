// Package obs is the unified observability layer of the lockdown
// pipeline: a zero-dependency typed metrics registry (counters, gauges,
// histograms) with Prometheus text-format exposition, an HTTP self-metrics
// server (plus live pprof), a Chrome trace_event span tracer, and the
// structured run-event type the CLI's reporter renders.
//
// Every other stats surface of the repo — the engine's `_runtime/*` result
// stamps, core.CacheStats, replay.Stats, cluster.Stats,
// faultinject.RelayStats — is re-derived from (or mirrored into) these
// instruments, so the stderr summaries, `-json` output and `/metrics`
// scrape can never drift apart: they read the same atomic counters.
//
// Disabled-mode cost is the design constraint. Instruments are plain
// atomics that exist whether or not a sink is attached: a *Counter Add is
// one atomic add, a Histogram Observe is a bounds scan plus two atomic
// ops, and a Span on a nil Tracer is a time.Now pair. None of them
// allocate — asserted by testing.AllocsPerRun in this package and pinned
// by the benchgate gates on the instrumented hot paths (bridge demux,
// segment write/fault, codec batches). A nil *Registry hands out fully
// functional standalone instruments, so construction sites never branch
// on "is observability on".
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; Registry.Counter returns registered instances. All methods are
// safe for concurrent use and never allocate.
type Counter struct {
	v atomic.Int64
}

// Add adds n (n must not be negative for Prometheus semantics; the
// counter does not enforce it, snapshot readers do the interpretation).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into a fixed bucket layout. Buckets are
// cumulative at exposition (Prometheus `le` semantics); internally each
// slot counts its own interval so Observe touches one slot. The zero
// value is not usable — construct with NewHistogram or Registry.Histogram.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last = observations above all bounds
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DurationBuckets is the shared bucket layout for operation latencies in
// seconds: 1ms to ~65s in powers of four. Every duration histogram of the
// pipeline uses it so panels line up.
var DurationBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// NewHistogram returns a standalone histogram with the given ascending
// upper bounds (a final +Inf bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. It never allocates: the bucket scan is over
// a small fixed slice and the sum is a CAS float accumulation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds, plus the
// +Inf bucket (== total count at the time each slot was read).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// metricKind tags a family's exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one exposition time series inside a family: an instrument (or
// a read-callback) plus its optional single label value.
type series struct {
	labelVal string // "" = unlabelled
	counter  *Counter
	hist     *Histogram
	fn       func() float64 // func-backed value (read at scrape)
}

// family is one named metric family.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // label name for Vec families ("" otherwise)

	mu     sync.Mutex
	series []*series
	byVal  map[string]*series
}

// Registry holds named metric families for exposition. A nil *Registry
// is valid everywhere and hands out standalone (unregistered but fully
// functional) instruments, so packages instrument themselves
// unconditionally and the CLI decides whether anything is exported.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// familyFor installs or finds a family, enforcing that a name is never
// reused with a different type or label shape (a programmer error).
func (r *Registry) familyFor(name, help string, kind metricKind, label string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, label: label, byVal: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v(label=%q), was %v(label=%q)",
			name, kind, label, f.kind, f.label))
	}
	return f
}

// single returns the family's unlabelled series, creating it with mk on
// first use.
func (f *family) single(mk func() *series) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byVal[""]; ok {
		return s
	}
	s := mk()
	f.byVal[""] = s
	f.series = append(f.series, s)
	return s
}

// Counter returns the registered counter of the given name, creating the
// family on first use (get-or-create: two callers share one instrument).
// On a nil registry it returns a standalone counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return new(Counter)
	}
	f := r.familyFor(name, help, kindCounter, "")
	return f.single(func() *series { return &series{counter: new(Counter)} }).counter
}

// Histogram returns the registered histogram of the given name with the
// given bucket bounds (ignored if the family already exists). On a nil
// registry it returns a standalone histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	f := r.familyFor(name, help, kindHistogram, "")
	return f.single(func() *series { return &series{hist: NewHistogram(bounds)} }).hist
}

// CounterFunc registers a counter family whose value is read from fn at
// scrape time — the bridge between exposition and stats that already live
// behind their own lock (e.g. the chaos relay's per-stream counts). No-op
// on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.familyFor(name, help, kindCounter, "")
	f.single(func() *series { return &series{fn: fn} })
}

// GaugeFunc is CounterFunc with gauge semantics (cache entries,
// goroutines).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.familyFor(name, help, kindGauge, "")
	f.single(func() *series { return &series{fn: fn} })
}

// CounterVec is a counter family with one label dimension (e.g. a
// per-stream counter labelled stream="2").
type CounterVec struct {
	f *family // nil on a nil registry
}

// CounterVec returns the labelled counter family of the given name.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	if r == nil {
		return CounterVec{}
	}
	if label == "" {
		panic("obs: CounterVec needs a label name")
	}
	return CounterVec{f: r.familyFor(name, help, kindCounter, label)}
}

// With returns the counter of one label value, creating it on first use.
// The instrument is cached by the caller, so the map lookup is off the
// hot path; on an unregistered vec it returns a standalone counter.
func (v CounterVec) With(value string) *Counter {
	if v.f == nil {
		return new(Counter)
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s, ok := v.f.byVal[value]; ok {
		return s.counter
	}
	s := &series{labelVal: value, counter: new(Counter)}
	v.f.byVal[value] = s
	v.f.series = append(v.f.series, s)
	return s.counter
}

// families returns the registered families sorted by name, for
// exposition.
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
