// Package goldentest holds the comparison contract shared by the golden
// tests: internal/replay (single pump), internal/cluster (sharded) and
// the CI forced-spill step (via cmd/goldendiff) all pin their suite runs
// bit-identical to the in-memory engine with exactly these rules, so the
// acceptance criterion lives in one place and the tests cannot drift
// apart.
package goldentest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"lockdown/internal/core"
)

// FlowExperiments are the experiments that actually consume the
// FlowSource (every other experiment reads volume series straight from
// the local generator model and never touches the wire, so replaying
// them adds no coverage). The set spans all three batch kinds: plain
// hour batches (fig7a/b, fig9), component batches (fig8), VPN batches
// (fig10, ablation-vpn) and the EDU day concatenation (fig12).
var FlowExperiments = []string{"fig7a", "fig7b", "fig8", "fig9", "fig10", "fig12", "ablation-vpn"}

// RunSuite is the "run the suite under options O, then compare" harness
// shared by the golden tests: it builds a fresh engine drawing flows from
// src (nil selects the in-process generator), executes the given
// experiments (nil = the full suite) with the given parallelism, reads
// every flow batch back twice through the cache against a fresh
// generation of the model (core.Dataset.Reread), closes the engine's
// dataset, and returns the results plus the cache stats at the end of the
// run and after each read-back. A suite run holds no batch past its first
// draw, so the read-backs are what bring the batches back: the first
// rebuilds each through src and, under a cache budget, evicts it again —
// into a span under a cache dir — and the second maps each span back
// (HoldsNoBatch). Callers pair it with CompareResults to assert
// bit-identity against a reference run.
func RunSuite(t testing.TB, src core.FlowSource, ids []string, parallel int, opts core.Options) (results []*core.Result, suite core.CacheStats, back [2]core.CacheStats) {
	t.Helper()
	engine := core.NewEngineWithSource(opts, src)
	defer engine.Data().Close()
	results, err := engine.RunMany(context.Background(), ids, parallel)
	if err != nil {
		t.Fatalf("suite (parallel %d, opts %+v) failed: %v", parallel, opts, err)
	}
	suite = engine.Data().Stats()
	for i := range back {
		if _, err := engine.Data().Reread(core.NewSyntheticSource(opts)); err != nil {
			t.Errorf("reading the suite's batches back (opts %+v): %v", opts, err)
		}
		back[i] = engine.Data().Stats()
	}
	return results, suite, back
}

// HoldsNoBatch asserts the cache stats RunSuite returns for a run under a
// 1-byte cache budget: the suite held, evicted, spilled and faulted no
// batch, since every batch is dropped at its first draw; the first
// read-back rebuilt every batch once and evicted it — spilling each once,
// and regenerating none, when opts names a cache dir — and the second
// brought every batch back once more and evicted it again: under a cache
// dir by mapping its span, which Reread compared with a fresh generation,
// writing no span and regenerating none.
func HoldsNoBatch(t testing.TB, label string, opts core.Options, suite core.CacheStats, back [2]core.CacheStats) {
	t.Helper()
	if suite.ResidentBytes != 0 || suite.Evictions != 0 || suite.Spills != 0 || suite.Faults != 0 || suite.Regens != 0 {
		t.Errorf("%s: the suite must hold, evict, spill and fault no batch: %+v", label, suite)
	}
	first, again := back[0], back[1]
	spills := int64(0)
	if opts.CacheDir != "" {
		spills = first.Faults
	}
	if first.Faults == 0 || first.Evictions != first.Faults || first.Spills != spills || first.Regens != 0 {
		t.Errorf("%s: reading back must rebuild and evict every batch once, spill each once under a cache dir, and regenerate none: %+v", label, first)
	}
	if again.Faults != 2*first.Faults || again.Evictions != again.Faults || again.Spills != first.Spills || again.Regens != 0 {
		t.Errorf("%s: reading back again must bring every batch back once, from its span under a cache dir, writing and regenerating none: first %+v, again %+v", label, first, again)
	}
}

// DiffModuloRuntime compares two rendered suite outputs (the text
// `lockdown all` prints) after dropping every line that mentions a
// _runtime/ execution metric — the same exclusion CompareResults applies
// to result metrics. It returns "" when the outputs are identical modulo
// runtime lines, otherwise a description of the first divergence. The CI
// forced-spill step uses it through cmd/goldendiff.
func DiffModuloRuntime(want, got string) string {
	w := dropRuntimeLines(want)
	g := dropRuntimeLines(got)
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("first divergence at non-runtime line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("line counts differ modulo runtime lines: want %d, got %d", len(w), len(g))
	}
	return ""
}

func dropRuntimeLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "_runtime/") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// CompareResults asserts bit-identical metrics between an in-memory run
// (want) and a wire run (got). Runtime metrics are excluded: they
// describe the execution, not the experiment. label names the wire
// topology in failure messages (e.g. the format or shard count).
func CompareResults(t testing.TB, label string, want, got []*core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results in memory, %d over the wire", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID {
			t.Fatalf("%s: result %d is %s in memory, %s over the wire", label, i, w.ID, g.ID)
		}
		for name, wv := range w.Metrics {
			if core.IsRuntimeMetric(name) {
				continue
			}
			gv, ok := g.Metrics[name]
			if !ok {
				t.Errorf("%s: %s: metric %q missing over the wire", label, w.ID, name)
				continue
			}
			if math.Float64bits(wv) != math.Float64bits(gv) {
				t.Errorf("%s: %s: metric %q = %v over the wire, want %v (bit-exact)", label, w.ID, name, gv, wv)
			}
		}
		for name := range g.Metrics {
			if !core.IsRuntimeMetric(name) {
				if _, ok := w.Metrics[name]; !ok {
					t.Errorf("%s: %s: extra metric %q over the wire", label, w.ID, name)
				}
			}
		}
	}
}
