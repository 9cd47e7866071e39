package goldentest

import (
	"strings"
	"testing"

	"lockdown/internal/core"
)

func TestDiffModuloRuntime(t *testing.T) {
	base := "header\n  metric-a 1.000\n  _runtime/wall-ms 12.3\nfooter\n"
	cases := []struct {
		name       string
		got        string
		wantDiff   bool
		wantSubstr string
	}{
		{"identical", base, false, ""},
		{"runtime-only difference", "header\n  metric-a 1.000\n  _runtime/wall-ms 99.9\nfooter\n", false, ""},
		{"extra runtime lines", "header\n  metric-a 1.000\n  _runtime/wall-ms 1\n  _runtime/scan-chunks 7\nfooter\n", false, ""},
		{"metric differs", "header\n  metric-a 2.000\n  _runtime/wall-ms 12.3\nfooter\n", true, "first divergence"},
		{"line missing", "header\n  _runtime/wall-ms 12.3\nfooter\n", true, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := DiffModuloRuntime(base, c.got)
			if (d != "") != c.wantDiff {
				t.Fatalf("DiffModuloRuntime = %q, wantDiff=%v", d, c.wantDiff)
			}
			if c.wantSubstr != "" && !strings.Contains(d, c.wantSubstr) {
				t.Fatalf("diff %q lacks %q", d, c.wantSubstr)
			}
		})
	}
}

// TestRunSuiteMatchesEngine exercises the shared harness against the
// generator-backed source: RunSuite with a nil source must reproduce a
// plain engine run bit-identically (it is the same code path the replay
// and cluster golden tests feed their wire sources through). Under a
// 1-byte budget the run holds, evicts and spills no batch, and the
// read-backs rebuild every one, then rebuild it again. Under a cache dir
// as well, the second read-back maps every batch from its span.
func TestRunSuiteMatchesEngine(t *testing.T) {
	opts := core.Options{FlowScale: 0.02}
	want, _, _ := RunSuite(t, nil, []string{"fig8", "tab2"}, 1, opts)
	got, _, _ := RunSuite(t, core.NewSyntheticSource(opts), []string{"fig8", "tab2"}, 2, opts)
	CompareResults(t, "synthetic source", want, got)

	opts.CacheBudget = 1
	got, suite, back := RunSuite(t, core.NewSyntheticSource(opts), []string{"fig8", "tab2"}, 2, opts)
	CompareResults(t, "synthetic source, budget 1", want, got)
	HoldsNoBatch(t, "synthetic source, budget 1", opts, suite, back)

	opts.CacheDir = t.TempDir()
	got, suite, back = RunSuite(t, core.NewSyntheticSource(opts), []string{"fig8", "tab2"}, 2, opts)
	CompareResults(t, "synthetic source, budget 1, cache dir", want, got)
	HoldsNoBatch(t, "synthetic source, budget 1, cache dir", opts, suite, back)
}
