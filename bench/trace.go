package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lockdown/internal/core"
	"lockdown/internal/goldentest"
)

// sourceCost is what the source.* spans of a cold pass add up to.
type sourceCost struct {
	seconds float64 // sum of durations; exceeds wall when calls overlap
	batches int64
	rows    int64
	spans   []interval
}

func (p *pass) sourceCost() sourceCost {
	var c sourceCost
	for _, s := range p.tr.children(p.cold, "source.") {
		c.seconds += s.seconds()
		c.batches++
		c.rows += s.Rows
		c.spans = append(c.spans, s.interval())
	}
	return c
}

// coldSelf is pass.cold minus the stretches in which at least one source
// call was running: scan, merge, cache and, under a budget, the spill
// tier's write side.
func (p *pass) coldSelf() float64 {
	return float64(selfTime(p.cold.interval(), p.source.spans)) / 1e9
}

// trace is a traced run of one workload, in this process: the per-layer
// numbers. End-to-end numbers are never taken from here.
func (h *harness) trace(ctx context.Context, w workload, seed int64) (*result, error) {
	rep := &result{Workload: w.name, Why: w.why, Mode: "trace", Seed: seed, Correct: true}
	h.env.CalibS = calibrate()
	rep.Env = h.env

	// A discarded pass at a tenth of the rows first: whichever pass runs
	// first in a process is 10-50 % slower than the same pass run second
	// (text faulted in, once-per-process tables built, heap grown), which
	// would otherwise be booked as tracing overhead and make the traced
	// seconds depend on luck.
	warmUp := w
	warmUp.scale = 0.1
	if _, err := runPass(ctx, newTracer(), w.name+"/warm-up", warmUp, seed, h.spillDir, false); err != nil {
		return nil, err
	}

	tr := newTracer()
	main, err := runPass(ctx, tr, w.name, w, seed, h.spillDir, true)
	if err != nil {
		return nil, err
	}
	plain, err := runPass(ctx, tr, w.name+"/untraced", w, seed, h.spillDir, false)
	if err != nil {
		return nil, err
	}
	var base *pass
	if w.baseline != "" {
		bw, ok := workloadByName(w.baseline)
		if !ok {
			return nil, fmt.Errorf("%s: unknown baseline %q", w.name, w.baseline)
		}
		if base, err = runPass(ctx, tr, bw.name, bw, seed, h.spillDir, true); err != nil {
			return nil, err
		}
	}

	// Every pass must print what the in-memory run prints: the baseline's
	// cold pass where there is one, else this workload's own.
	ref := main.texts
	if base != nil {
		ref = base.texts
	}
	check := func(name string, got map[string]string) {
		rep.OpsAttempted += len(ref)
		for _, e := range core.All() {
			if d := goldentest.DiffModuloRuntime(ref[e.ID], got[e.ID]); d != "" {
				rep.OpsFailed++
				rep.problem("%s: %s: %s", name, e.ID, d)
			}
		}
	}
	check("pass.cold", main.texts)
	check("pass.warm", main.warmTexts)
	check("untraced pass.cold", plain.texts)

	src := main.source
	gen := src // the generator's own cost
	if w.wire {
		gen = base.source
	}
	v := map[string]float64{
		"synth.source_s":     gen.seconds,
		"synth.batches":      float64(gen.batches),
		"synth.rows":         float64(gen.rows),
		"synth.us_per_batch": gen.seconds / float64(gen.batches) * 1e6,
		"synth.ns_per_row":   gen.seconds / float64(gen.rows) * 1e9,
		"synth.model_s":      main.model.gens.seconds(),
		"synth.series_s":     main.model.series.seconds(),

		"core.cold_s":      main.cold.seconds(),
		"core.cold_self_s": main.coldSelf(),
		"core.warm_s":      main.warm.seconds(),

		"core.cache_hits":      float64(main.stats.Hits),
		"core.cache_misses":    float64(main.stats.Misses),
		"core.cache_hit_ratio": float64(main.stats.Hits) / float64(main.stats.Hits+main.stats.Misses),

		"flowstore.spills":      float64(main.stats.Spills),
		"flowstore.faults":      float64(main.stats.Faults),
		"flowstore.regens":      float64(main.stats.Regens),
		"flowstore.spilled_mb":  float64(main.stats.SpilledBytes) / (1 << 20),
		"flowstore.write_mb":    main.prom["lockdown_flowstore_write_bytes_total"] / (1 << 20),
		"flowstore.write_amp":   0,
		"flowstore.opens":       main.prom["lockdown_flowstore_opens_total"],
		"flowstore.span_faults": main.prom["lockdown_flowstore_span_faults_total"],
		"flowstore.compactions": main.prom["lockdown_flowstore_compactions_total"],
		"flowstore.tier_cold_s": 0,
		"flowstore.tier_warm_s": 0,

		"replay.fetch_s":         0,
		"replay.buckets":         float64(main.bridge.Keys),
		"replay.rows":            float64(main.bridge.Rows),
		"replay.retries":         float64(main.bridge.Retries),
		"replay.lost_rows":       float64(main.bridge.LostRows),
		"replay.orphan_rows":     float64(main.bridge.OrphanRows),
		"replay.decode_errors":   float64(main.bridge.DecodeErrors),
		"replay.pump_rows_sent":  float64(main.pump.RowsSent),
		"replay.wire_overhead_s": 0,

		"ipfix.encode_ns_per_row": 0,
		"ipfix.decode_ns_per_row": 0,
		"ipfix.bytes_per_row":     0,

		"report.render_s": main.render.seconds(),
		"report.bytes":    float64(main.renderBytes),

		"bench.trace_overhead_ratio": main.cold.seconds() / plain.cold.seconds(),
	}
	for _, r := range main.results {
		wall := r.Metrics[core.MetricWallMS] / 1e3
		v["core.exp_sum_s"] += wall
		v["core.exp_max_s"] = max(v["core.exp_max_s"], wall)
		v["core.scan_chunks"] += r.Metrics[core.MetricScanChunks]
		v["core.extra_workers"] += r.Metrics[core.MetricScanWorkers]
		v["core.prefetched"] += r.Metrics[core.MetricScanPrefetch]
	}
	if mb := v["flowstore.spilled_mb"]; mb > 0 {
		v["flowstore.write_amp"] = v["flowstore.write_mb"] / mb
	}
	if w.spill {
		v["flowstore.tier_cold_s"] = main.coldSelf() - base.coldSelf()
		v["flowstore.tier_warm_s"] = main.warm.seconds() - base.warm.seconds()
	}
	if w.wire {
		v["replay.fetch_s"] = src.seconds
		v["replay.wire_overhead_s"] = src.seconds - gen.seconds
		enc, dec, bpr, err := codecCost(main.kept)
		if err != nil {
			return nil, err
		}
		v["ipfix.encode_ns_per_row"], v["ipfix.decode_ns_per_row"], v["ipfix.bytes_per_row"] = enc, dec, bpr
	}
	if rep.Metrics, err = collect(perLayer, v); err != nil {
		return nil, err
	}

	if rep.TraceFile, err = writeTrace(w.name, seed, tr.spans, rep.Metrics); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeTrace writes the spans of every pass of the run, and the metrics
// derived from them, as trace-<workload>.json under buildDir.
func writeTrace(name string, seed int64, spans []*span, metrics map[string]metricValue) (string, error) {
	doc := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Spans    []*span                `json:"spans"`
		Metrics  map[string]metricValue `json:"metrics"`
	}{name, seed, spans, metrics}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(buildDir, "trace-"+name+".json")
	return path, os.WriteFile(path, b, 0o644)
}
