package goldentest

import (
	"context"
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
// generator-backed source: RunSuite must reproduce a plain engine run
// bit-identically (it is the same code path the replay and cluster golden
// tests feed their wire sources through), and each of its two runs draws
// every key once (HoldsNoBatch), the March week that Figure 10 and
// ablation-vpn share included.
func TestRunSuiteMatchesEngine(t *testing.T) {
	opts := core.Options{FlowScale: 0.02}
	ids := []string{"fig10", "ablation-vpn", "tab2"}
	want, err := core.NewEngine(opts).RunMany(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, draws := RunSuite(t, core.NewSyntheticSource(opts), ids, 2, opts)
	CompareResults(t, "synthetic source", want, got)
	HoldsNoBatch(t, "synthetic source", draws)
	if n := len(draws[0]); n != 21 {
		t.Errorf("fig10 drew %d keys, want its 21 vpn-flows days", n)
	}
}
