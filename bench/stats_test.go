package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMinMax(t *testing.T) {
	v := []float64{2.5, 1.25, 3, 1.5}
	if got := minOf(v); got != 1.25 {
		t.Errorf("minOf = %v, want 1.25", got)
	}
	if got := maxOf(v); got != 3 {
		t.Errorf("maxOf = %v, want 3", got)
	}
	if !math.IsNaN(minOf(nil)) || !math.IsNaN(maxOf(nil)) {
		t.Error("minOf/maxOf of nothing must be NaN")
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25}, // order must not matter
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 2, 4, 6},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1.5, 2.5, 10}, 1.5, 2.5, 10},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.v...)
		q1, med, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
		if !reflect.DeepEqual(in, c.v) {
			t.Errorf("quartiles reordered its input: %v", c.v)
		}
		if m := median(c.v); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.v, m, c.med)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Error("quartiles of nothing must be NaN")
	}
}

func TestSpread(t *testing.T) {
	// q1 2.75, median 5.5, q3 8.25.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestUnionLenAndSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		union    int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 30},
		{"overlapping count once", []interval{{10, 40}, {20, 50}, {25, 30}}, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 20},
		{"clipped to the span", []interval{{-50, 10}, {90, 500}}, 20},
		{"outside the span", []interval{{-9, -1}, {100, 200}}, 0},
		{"unsorted", []interval{{60, 70}, {0, 10}, {5, 65}}, 70},
		{"empty and inverted", []interval{{5, 5}, {9, 3}}, 0},
	}
	for _, c := range cases {
		if got := unionLen(c.children, 0, 100); got != c.union {
			t.Errorf("%s: unionLen = %d, want %d", c.name, got, c.union)
		}
		if got := selfTime(interval{0, 100}, c.children); got != 100-c.union {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, 100-c.union)
		}
	}
}

func TestWorsening(t *testing.T) {
	cases := []struct {
		base, val float64
		lower     bool
		want      float64
	}{
		{2.0, 2.5, true, 0.25}, // slower
		{2.0, 1.0, true, -0.5}, // faster: an improvement is negative
		{100, 80, false, 0.20}, // higher is better: the direction flips
		{100, 300, false, -2.0},
		{2.0, 2.0, true, 0},
	}
	for _, c := range cases {
		if got := worsening(c.base, c.val, c.lower); !near(got, c.want) {
			t.Errorf("worsening(%v, %v, lower=%v) = %v, want %v", c.base, c.val, c.lower, got, c.want)
		}
	}
}

func TestSections(t *testing.T) {
	out := "== fig1 — Weekly volume ==\nrow\nmetrics:\n  a  1.000\n\n== tab2 — Hypergiants ==\n== not a header\nrow\n\n"
	secs := sections(out)
	if len(secs) != 2 {
		t.Fatalf("got %d sections, want 2: %v", len(secs), secs)
	}
	if want := "== fig1 — Weekly volume ==\nrow\nmetrics:\n  a  1.000\n\n"; secs["fig1"] != want {
		t.Errorf("fig1 = %q, want %q", secs["fig1"], want)
	}
	if !strings.Contains(secs["tab2"], "== not a header\nrow\n") {
		t.Errorf("tab2 lost its body: %q", secs["tab2"])
	}
	if len(sections("")) != 0 {
		t.Error("no output has no sections")
	}
}

func TestFailedExperiments(t *testing.T) {
	ref := map[string]string{}
	for _, id := range []string{"fig1", "fig2a", "fig2bc", "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7a", "fig7b", "tab1", "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12", "tab2", "appB", "ablation-vpn", "ablation-binsize"} {
		ref[id] = "== " + id + " — t ==\n  x 1.000\n  _runtime/wall-ms 5.0\n"
	}
	got := map[string]string{}
	for id, s := range ref {
		got[id] = strings.Replace(s, "wall-ms 5.0", "wall-ms 9.9", 1)
	}
	if n, first := failedExperiments(ref, got); n != 0 {
		t.Fatalf("runtime lines must not count: %d failed, %s", n, first)
	}
	got["fig8"] = strings.Replace(got["fig8"], "1.000", "1.001", 1)
	delete(got, "tab2")
	n, first := failedExperiments(ref, got)
	if n != 2 || !strings.HasPrefix(first, "fig8: ") {
		t.Errorf("got %d failed, first %q; want 2, first fig8", n, first)
	}
}

func TestCollect(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "s"}, {name: "b", unit: "count"}}
	m, err := collect(defs, map[string]float64{"a": 1.5, "b": 2})
	if err != nil || m["a"] != (metricValue{1.5, "s"}) || m["b"] != (metricValue{2, "count"}) {
		t.Errorf("collect = %v, %v", m, err)
	}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric must be an error")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undefined metric must be an error")
	}
}

// BENCHMARK.json at the module root is what the driver reads; the tables
// in defs.go are what the harness prints. They must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(js), len(defs))
		}
		for i, d := range defs {
			j := js[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better() {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || (bounded && (*j.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound mismatch or out of (0, 0.25]", kind, d.name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)

	setup, largest := 0.0, 0.0
	for _, d := range endToEnd {
		largest = math.Max(largest, d.bound)
		if d.name == "setup_s" {
			setup = d.bound
		}
	}
	if setup == 0 || setup != largest {
		t.Errorf("setup_s must exist and carry the largest bound (%v vs %v)", setup, largest)
	}
}
