// Package lockdown_bench is the benchmark harness that regenerates every
// table and figure of "The Lockdown Effect" (IMC 2020). Each benchmark runs
// the corresponding experiment of internal/core and reports the headline
// metric(s) as custom benchmark units, so that
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the reproduced numbers (see
// EXPERIMENTS.md for the paper-vs-measured comparison).
package lockdown_bench

import (
	"context"
	"testing"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/synth"
	"lockdown/internal/tmpl"
)

// benchOptions keeps the flow-level experiments affordable inside the
// benchmark loop while leaving relative results unchanged.
var benchOptions = core.Options{FlowScale: 0.25}

// runExperiment runs one experiment b.N times and reports selected metrics
// from the final run.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Run(id, benchOptions)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	for metric, unit := range metrics {
		b.ReportMetric(res.Metric(metric), unit)
	}
}

func BenchmarkFig01WeeklyVolume(b *testing.B) {
	runExperiment(b, "fig1", map[string]string{
		"ISP-CE/week13": "ISP-CE_wk13_x",
		"IXP-CE/week13": "IXP-CE_wk13_x",
	})
}

func BenchmarkFig02aDailyPattern(b *testing.B) {
	runExperiment(b, "fig2a", map[string]string{
		"mar25/morning-share": "mar25_morning_share",
	})
}

func BenchmarkFig02bcPatternClassification(b *testing.B) {
	runExperiment(b, "fig2bc", map[string]string{
		"ISP-CE/lockdown-workdays-weekendlike": "ISP_weekendlike_frac",
	})
}

func BenchmarkFig03aISPWeeks(b *testing.B) {
	runExperiment(b, "fig3a", map[string]string{
		"stage1/mean": "stage1_mean_x",
		"stage3/mean": "stage3_mean_x",
	})
}

func BenchmarkFig03bIXPWeeks(b *testing.B) {
	runExperiment(b, "fig3b", map[string]string{
		"IXP-CE/stage2/mean": "IXPCE_stage2_x",
		"IXP-US/stage1/mean": "IXPUS_stage1_x",
	})
}

func BenchmarkFig04Hypergiants(b *testing.B) {
	runExperiment(b, "fig4", map[string]string{
		"gap-week15/Workday 09:00-16:59": "other_minus_hg_wk15",
	})
}

func BenchmarkFig05LinkUtilization(b *testing.B) {
	runExperiment(b, "fig5", map[string]string{
		"median-shift": "median_util_shift",
	})
}

func BenchmarkFig06RemoteWorkASes(b *testing.B) {
	runExperiment(b, "fig6", map[string]string{
		"correlation": "total_vs_residential_r",
	})
}

func BenchmarkFig07aPortsISP(b *testing.B) {
	runExperiment(b, "fig7a", map[string]string{
		"UDP/443/stage1-workday":  "quic_stage1_x",
		"UDP/4500/stage1-workday": "natt_stage1_x",
	})
}

func BenchmarkFig07bPortsIXP(b *testing.B) {
	runExperiment(b, "fig7b", map[string]string{
		"UDP/3480/stage1-workday": "teams_stage1_x",
		"GRE/stage2-workday":      "gre_stage2_x",
	})
}

func BenchmarkTab01FilterInventory(b *testing.B) {
	runExperiment(b, "tab1", map[string]string{"classes": "classes"})
}

func BenchmarkFig08GamingIXPSE(b *testing.B) {
	runExperiment(b, "fig8", map[string]string{
		"week14/volume": "wk14_volume_x",
		"outage-ratio":  "outage_ratio",
	})
}

func BenchmarkFig09AppClassHeatmaps(b *testing.B) {
	runExperiment(b, "fig9", map[string]string{
		"IXP-CE/Web conf/stage1": "IXPCE_webconf_pct",
		"ISP-CE/VoD/stage1":      "ISP_vod_pct",
	})
}

func BenchmarkFig10VPNShift(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"stage1/domain": "domain_vpn_stage1_x",
		"stage1/port":   "port_vpn_stage1_x",
	})
}

func BenchmarkFig11aEDUVolume(b *testing.B) {
	runExperiment(b, "fig11a", map[string]string{
		"workday-drop": "workday_drop_frac",
	})
}

func BenchmarkFig11bEDUInOutRatio(b *testing.B) {
	runExperiment(b, "fig11b", map[string]string{
		"base-workday-ratio":   "base_inout_ratio",
		"online-workday-ratio": "online_inout_ratio",
	})
}

func BenchmarkFig12EDUConnections(b *testing.B) {
	runExperiment(b, "fig12", map[string]string{
		"Eyeball ISPs (VPN, In)": "vpn_in_x",
		"SSH (In)":               "ssh_in_x",
	})
}

// --- intra-experiment sharding benchmarks --------------------------------
//
// fig12's month-walk over sampled EDU days is the suite's worst-case
// single experiment, so it is the headline case for core.ShardedScan.
// Sequential holds the worker budget at one token (the sharded scan
// degrades to the old in-order loop); Sharded4 gives the engine four
// tokens, so the day-grid scan borrows the three spares as extra chunk
// workers. Output is bit-identical either way
// (TestRunAllShardingInvariance pins this).
func benchFig12Workers(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		eng := core.NewEngine(benchOptions)
		if _, err := eng.RunMany(context.Background(), []string{"fig12"}, parallel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Sequential(b *testing.B) { benchFig12Workers(b, 1) }

func BenchmarkFig12Sharded4(b *testing.B) { benchFig12Workers(b, 4) }

func BenchmarkTab02Hypergiants(b *testing.B) {
	runExperiment(b, "tab2", map[string]string{"hypergiants": "hypergiants"})
}

func BenchmarkAppBEDUClasses(b *testing.B) {
	runExperiment(b, "appB", map[string]string{"classes": "classes"})
}

func BenchmarkAblationPortOnlyVPN(b *testing.B) {
	runExperiment(b, "ablation-vpn", map[string]string{
		"missed-share": "missed_vpn_share",
	})
}

func BenchmarkAblationPatternBinSize(b *testing.B) {
	runExperiment(b, "ablation-binsize", map[string]string{
		"bin6": "bin6_agreement",
	})
}

// --- full-suite engine benchmarks ---------------------------------------
//
// The three RunAll benchmarks quantify the engine's two levers on the full
// 21-experiment suite: the shared dataset cache (SeedSequential vs
// Sequential) and the bounded worker pool (Sequential vs Parallel8).
// Results are bit-identical across all three (see
// TestRunAllParallelDeterminism), so only the wall time moves.

// BenchmarkRunAllSeedSequential reproduces the pre-engine execution model:
// every experiment runs on its own single-use engine, so nothing is shared
// and each experiment regenerates its inputs from scratch.
func BenchmarkRunAllSeedSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range core.All() {
			if _, err := core.Run(e.ID, benchOptions); err != nil {
				b.Fatalf("experiment %s: %v", e.ID, err)
			}
		}
	}
}

// BenchmarkRunAllSequential runs the suite on one engine with a single
// worker: the speedup over SeedSequential is the dataset cache alone.
func BenchmarkRunAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(benchOptions).RunAll(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel8 runs the suite on one engine with eight
// workers: cache sharing plus parallel execution.
func BenchmarkRunAllParallel8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.NewEngine(benchOptions).RunAll(context.Background(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

func benchRecords(n int) []flowrec.Record {
	g := synth.MustNewDefault(synth.ISPCE)
	recs := g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)).Records()
	for len(recs) < n {
		recs = append(recs, recs...)
	}
	return recs[:n]
}

// --- batch-path micro-benchmarks ----------------------------------------
//
// The *Batch codec benchmarks exercise the steady-state export/collect
// loop: one reused packet buffer and one reused decode batch. Run with
// -benchmem; the CI bench gate fails the build if allocs/op regresses by
// more than 10% against the BENCH_gates.json baseline (~0 allocs/op).

func BenchmarkCodecNetflowV9Batch(b *testing.B) {
	src := flowrec.FromRecords(benchRecords(100))
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	decoder := tmpl.NewDecoder(&tmpl.V9)
	var buf []byte
	var seq uint32
	dec := flowrec.NewBatch(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = tmpl.V9.EncodeBatch(buf[:0], src, 0, src.Len(), export, 1, &seq)
		if err != nil {
			b.Fatal(err)
		}
		dec.Reset()
		if _, err := decoder.DecodeBatch(dec, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100, "records/op")
}

func BenchmarkCodecIPFIXBatch(b *testing.B) {
	src := flowrec.FromRecords(benchRecords(100))
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	enc := &ipfix.Encoder{DomainID: 1}
	decoder := ipfix.NewDecoder()
	var buf []byte
	dec := flowrec.NewBatch(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = enc.EncodeBatch(buf[:0], src, 0, src.Len(), export)
		if err != nil {
			b.Fatal(err)
		}
		dec.Reset()
		if _, err := decoder.DecodeBatch(dec, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100, "records/op")
}

// BenchmarkGeneratorFlowsForHourBatch measures batch-native generation:
// the component-hour is sampled straight into preallocated columns.
func BenchmarkGeneratorFlowsForHourBatch(b *testing.B) {
	g := synth.MustNewDefault(synth.ISPCE)
	t := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = g.FlowsForHourBatch(t.Add(time.Duration(i%168) * time.Hour)).Len()
	}
	b.ReportMetric(float64(n), "flows/op")
}

func BenchmarkGeneratorHourlyVolume(b *testing.B) {
	g := synth.MustNewDefault(synth.IXPCE)
	t := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.HourlyVolume(t.Add(time.Duration(i%168) * time.Hour))
	}
}
