// Package goldentest holds the comparison contract shared by the golden
// tests: internal/replay (single pump), internal/cluster (sharded) and
// the CI goldendiff steps (via cmd/goldendiff) all pin their suite runs
// bit-identical to the in-memory engine with exactly these rules, so the
// acceptance criterion lives in one place and the tests cannot drift
// apart.
package goldentest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
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
// src, executes the given experiments (nil = the full suite) with the
// given parallelism twice, and returns the first run's results plus the
// draws src served, per key, in each run. The second run's results must
// equal the first's. Callers pair it with CompareResults to assert
// bit-identity against a reference run, and with HoldsNoBatch.
func RunSuite(t testing.TB, src core.FlowSource, ids []string, parallel int, opts core.Options) (results []*core.Result, draws [2]map[core.FlowKey]int) {
	t.Helper()
	counted := &countingSource{FlowSource: src}
	engine := core.NewEngineWithSource(opts, counted)
	for i := range draws {
		counted.draws = make(map[core.FlowKey]int)
		rs, err := engine.RunMany(context.Background(), ids, parallel)
		if err != nil {
			t.Fatalf("suite run %d (parallel %d, opts %+v) failed: %v", i+1, parallel, opts, err)
		}
		if i == 0 {
			results = rs
		} else {
			CompareResults(t, "second run on one engine", results, rs)
		}
		draws[i] = counted.draws
	}
	return results, draws
}

// HoldsNoBatch asserts the draws RunSuite returns: each run drew every key
// it read exactly once, a day two experiments read included, and the
// second run drew the same keys as the first. An entry the first run left
// unspent would make each reader of a shared day draw it in the second.
func HoldsNoBatch(t testing.TB, label string, draws [2]map[core.FlowKey]int) {
	t.Helper()
	if len(draws[0]) == 0 {
		t.Errorf("%s: the suite drew no flow batch", label)
	}
	for i, run := range draws {
		for k, n := range run {
			if n != 1 {
				t.Errorf("%s: run %d drew %v %d times, want once", label, i+1, k, n)
			}
			if i == 1 && draws[0][k] == 0 {
				t.Errorf("%s: run 2 drew %v, which run 1 did not", label, k)
			}
		}
	}
	if len(draws[1]) != len(draws[0]) {
		t.Errorf("%s: run 2 drew %d keys, run 1 %d: an entry outlived its run", label, len(draws[1]), len(draws[0]))
	}
}

// countingSource counts the batches it serves per key, for the run in
// progress. The engine's scan chunks draw concurrently.
type countingSource struct {
	core.FlowSource
	mu    sync.Mutex
	draws map[core.FlowKey]int
}

func (s *countingSource) count(k core.FlowKey) {
	s.mu.Lock()
	s.draws[k]++
	s.mu.Unlock()
}

func (s *countingSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	s.count(core.FlowKey{Kind: core.KindFlows, VP: vp, Hour: core.DayOf(day)})
	return s.FlowSource.FlowBatch(vp, day)
}

func (s *countingSource) VPNFlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	s.count(core.FlowKey{Kind: core.KindVPNFlows, VP: vp, Hour: core.DayOf(day)})
	return s.FlowSource.VPNFlowBatch(vp, day)
}

func (s *countingSource) ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error) {
	s.count(core.FlowKey{Kind: core.KindComponentFlows, VP: vp, Name: name, Hour: core.DayOf(day)})
	return s.FlowSource.ComponentFlowBatch(vp, name, day)
}

// DiffModuloRuntime compares two rendered suite outputs (the text
// `lockdown all` prints) after dropping every line that mentions a
// _runtime/ execution metric — the same exclusion CompareResults applies
// to result metrics. It returns "" when the outputs are identical modulo
// runtime lines, otherwise a description of the first divergence. The CI
// goldendiff steps use it through cmd/goldendiff.
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
