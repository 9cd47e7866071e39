package obs

import (
	"testing"
	"time"
)

// TestNilRegistryHandsOutWorkingInstruments pins the central contract:
// every constructor on a nil *Registry returns a standalone, fully
// functional instrument, so call sites never branch on "is observability
// on".
func TestNilRegistryHandsOutWorkingInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	c.Add(1)
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("standalone counter = %d, want 3", c.Value())
	}
	h := r.Histogram("x_seconds", "", DurationBuckets)
	h.Observe(0.01)
	h.Observe(100)
	if h.Count() != 2 || h.Sum() != 100.01 {
		t.Errorf("standalone histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	vc := r.CounterVec("x_by_stream_total", "", "stream").With("3")
	vc.Add(1)
	if vc.Value() != 1 {
		t.Errorf("standalone vec counter = %d, want 1", vc.Value())
	}
	r.CounterFunc("f_total", "", func() float64 { return 1 }) // must not panic
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestRegistryGetOrCreate pins that a name resolves to one shared
// instrument, and that kind or label-shape reuse panics.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "first")
	b := r.Counter("shared_total", "second help ignored")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Add(1)
	if b.Value() != 1 {
		t.Error("shared counter not shared")
	}
	v1 := r.CounterVec("vec_total", "", "stream").With("0")
	v2 := r.CounterVec("vec_total", "", "stream").With("0")
	if v1 != v2 {
		t.Error("same vec label value returned distinct counters")
	}

	mustPanic(t, "kind reuse", func() { r.GaugeFunc("shared_total", "", func() float64 { return 0 }) })
	mustPanic(t, "label-shape reuse", func() { r.Counter("vec_total", "") })
	mustPanic(t, "empty vec label", func() { r.CounterVec("v2_total", "", "") })
	mustPanic(t, "non-ascending bounds", func() { NewHistogram([]float64{1, 1}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestHistogramBuckets pins the bucket assignment and cumulative
// snapshot semantics (Prometheus le: v <= bound).
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 1.5, 10, 11, 1e9} {
		h.Observe(v)
	}
	cum := h.snapshot()
	// 0.5 and 1 land in le=1; 1.5 and 10 in le=10; 11 and 1e9 beyond.
	if cum[0] != 2 || cum[1] != 4 || cum[2] != 6 {
		t.Errorf("cumulative buckets = %v, want [2 4 6]", cum)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
}

// TestDisabledPathAllocationFree asserts the zero-alloc contract of
// every hot-path instrument operation, with and without a registry, and
// of spans on a nil tracer. The benchgate entries pin the same property
// against regression in the instrumented loops.
func TestDisabledPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "", DurationBuckets)
	var tr *Tracer

	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(0.02) }},
		{"nil-tracer span", func() {
			sp := tr.Start("x", "y")
			if sp.Active() {
				t.Fatal("span on nil tracer is active")
			}
			sp.End()
		}},
		{"nil-tracer instant", func() { tr.Instant("x", "y", nil) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// TestSpanMeasuresWithoutTracer pins the one-clock property the engine
// relies on: a Span from a nil tracer still returns a real duration.
func TestSpanMeasuresWithoutTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("exp", "experiment")
	time.Sleep(5 * time.Millisecond)
	if d := sp.End(); d < 5*time.Millisecond {
		t.Errorf("span measured %v, want >= 5ms", d)
	}
}

func BenchmarkObsCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkObsSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("bench", "bench")
		sp.End()
	}
}
