package core

import (
	"context"
	"os"
	"strings"
	"testing"

	"lockdown/internal/scenario"
)

// claimCount is the number of paper findings the registry states, so a
// claim is added or dropped on purpose.
const claimCount = 81

// claimNotes returns the claim verdicts among a result's notes.
func claimNotes(res *Result) []string {
	var out []string
	for _, n := range res.Notes {
		if strings.HasPrefix(n, "claim (") {
			out = append(out, n)
		}
	}
	return out
}

// TestPaperFidelity is the reproduction's anchor to the paper: every claim
// of every experiment holds at the tests' cheap scale, at the benchmark
// scale under the default seed and an unrelated one, and at the options
// EXPERIMENTS.md is generated with (the zero Options' flow scale is the
// CLI's default; the CLI's cache budget changes no result).
func TestPaperFidelity(t *testing.T) {
	n := 0
	for _, e := range All() {
		if len(e.claims) == 0 {
			t.Errorf("%s declares no claim", e.ID)
		}
		n += len(e.claims)
	}
	if n != claimCount {
		t.Errorf("the registry states %d claims, want %d", n, claimCount)
	}
	for _, set := range []struct {
		name string
		opts Options
	}{
		{"quick", quick()},
		{"seed0", Options{FlowScale: 0.25}},
		{"seed7", Options{FlowScale: 0.25, Seed: 7}},
		{"doc", Options{}},
	} {
		t.Run(set.name, func(t *testing.T) {
			engine := NewEngine(set.opts)
			results, err := engine.RunAll(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			metrics := make(map[string]map[string]float64, len(results))
			for _, res := range results {
				metrics[res.ID] = res.Metrics
				t.Run(res.ID, func(t *testing.T) {
					exp, _ := ByID(res.ID)
					verdicts := claimNotes(res)
					if len(verdicts) != len(exp.claims) {
						t.Errorf("%d claim verdicts, want %d", len(verdicts), len(exp.claims))
					}
					for _, v := range verdicts {
						if !strings.Contains(v, ": holds, ") {
							t.Error(v)
						}
					}
				})
			}
			checkBeyondClaims(t, metrics)
		})
	}
}

// checkBeyondClaims asserts what no single claim can state: two ratios of
// metrics, one comparison across experiments, and three floors on an
// experiment's input size that are no finding of the paper.
func checkBeyondClaims(t *testing.T, metrics map[string]map[string]float64) {
	t.Helper()
	get := func(id, name string) float64 {
		t.Helper()
		v, ok := metrics[id][name]
		if !ok {
			t.Errorf("%s: no metric %q", id, name)
		}
		return v
	}
	if w14, w8 := get("fig8", "week14/volume"), get("fig8", "week8/volume"); w14 < 1.4*w8 {
		t.Errorf("fig8: gaming volume week 14 (%.2f) should clearly exceed week 8 (%.2f)", w14, w8)
	}
	if online, base := get("fig11b", "online-workday-ratio"), get("fig11b", "base-workday-ratio"); online > base/2.5 {
		t.Errorf("fig11b: online-lecturing in/out ratio %.1f should be far below the base %.1f", online, base)
	}
	if ixp, isp := get("fig3b", "IXP-CE/stage3/mean"), get("fig3a", "stage3/mean"); ixp <= isp {
		t.Errorf("fig3b: IXP-CE stage-3 growth %.2f should exceed the ISP-CE's %.2f", ixp, isp)
	}
	if m := get("fig5", "members"); m < 50 {
		t.Errorf("fig5: %.0f members, want a substantial membership", m)
	}
	if n := get("fig6", "ases"); n < 20 {
		t.Errorf("fig6: the scatter holds %.0f ASes, want many", n)
	}
	if c := get("fig10", "candidates"); c == 0 {
		t.Error("fig10: no VPN candidate addresses derived")
	}
}

// TestClaimVerdict pins the evaluator's note text on a hand-built result.
func TestClaimVerdict(t *testing.T) {
	res := &Result{Metrics: map[string]float64{"SSH (In)": 5.738, "low": 1, "other": 1.3, "hg": 1.2}}
	ssh := claim{"§7", "incoming SSH connections 9.1x", "SSH (In)", "", 3, 12}
	low := ssh
	low.metric = "low"
	missing := ssh
	missing.metric = "VPN (In)"
	gap := claim{"§3.2", "other ASes outgrow hypergiants", "other", "hg", 0.002, inf}
	noMinus := gap
	noMinus.minus = "none"
	for _, tc := range []struct {
		c    claim
		want string
	}{
		{ssh, "claim (§7) incoming SSH connections 9.1x: holds, 5.738 in [3.000, 12.000]"},
		{low, "claim (§7) incoming SSH connections 9.1x: does not hold, 1.000 not in [3.000, 12.000]"},
		{missing, `claim (§7) incoming SSH connections 9.1x: does not hold: no metric "VPN (In)"`},
		{gap, "claim (§3.2) other ASes outgrow hypergiants: holds, 0.100 in [0.002, +Inf]"},
		{noMinus, `claim (§3.2) other ASes outgrow hypergiants: does not hold: no metric "none"`},
	} {
		if got := tc.c.verdict(res.Metrics); got != tc.want {
			t.Errorf("verdict = %q\n want %q", got, tc.want)
		}
	}
}

// TestSeverityZeroBreaksClaims: default.yaml at severity 0 has no
// lockdown, so the diurnal-shape, hypergiant, link-utilisation, VPN and EDU
// experiments must each report a claim that does not hold.
func TestSeverityZeroBreaksClaims(t *testing.T) {
	data, err := os.ReadFile("../../examples/scenarios/default.yaml")
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(string(data), "severity: 1.0", "severity: 0", 1)
	if src == string(data) {
		t.Fatal(`default.yaml has no "severity: 1.0" line`)
	}
	s, err := scenario.Parse("default.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	opts := quick()
	opts.Model = s.Config
	engine := NewEngine(opts)
	results, err := engine.RunMany(context.Background(), []string{"fig2a", "fig2bc", "fig4", "fig5", "fig10", "fig12"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		broken := 0
		for _, v := range claimNotes(res) {
			if strings.Contains(v, ": does not hold") {
				broken++
			}
		}
		if broken == 0 {
			t.Errorf("%s: every claim holds without a lockdown:\n%s", res.ID, strings.Join(claimNotes(res), "\n"))
		}
	}
}
