package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/synth"
)

// options are the core.Options the CLI would build for the workload.
func (w workload) options(seed int64, spillDir string) core.Options {
	opts := core.Options{FlowScale: w.scale, Seed: seed}
	if w.spill {
		opts.CacheBudget = 1
		opts.CacheDir = spillDir
	}
	return opts
}

// setupModel builds what every run of the CLI builds before the first
// flow batch: the generator and the VPN gateway derivation of every
// vantage point, then each one's full-study volume series.
func setupModel(tr *tracer, d *core.Dataset) (m modelSpans, err error) {
	m.root = tr.start("setup.model", nil)
	defer m.root.end()
	m.gens = tr.start("setup.model.generators", m.root)
	for _, vp := range synth.AllVantagePoints() {
		if _, err := d.Generator(vp); err != nil {
			return m, fmt.Errorf("generator %s: %w", vp, err)
		}
		if _, err := d.VPN(vp); err != nil {
			return m, fmt.Errorf("vpn data %s: %w", vp, err)
		}
	}
	m.gens.end()
	m.series = tr.start("setup.model.series", m.root)
	for _, vp := range synth.AllVantagePoints() {
		if _, err := d.Series(vp, calendar.StudyStart, calendar.StudyEnd); err != nil {
			return m, fmt.Errorf("series %s: %w", vp, err)
		}
	}
	m.series.end()
	return m, nil
}

// modelSpans are setup.model and its two halves.
type modelSpans struct{ root, gens, series *span }

// wire is the loopback pair of the wire workload: a pump exporting IPFIX
// and the bridge that collects, demuxes and verifies it.
type wire struct {
	bridge *replay.Bridge
	pump   *replay.Pump
	cancel context.CancelFunc
	done   chan struct{}
}

// setupWire brings bridge and pump up through ConnectPump, the way
// `lockdown replay` does.
func setupWire(tr *tracer, opts core.Options) (*wire, *span, error) {
	sp := tr.start("setup.wire", nil)
	defer sp.end()
	br, err := replay.NewBridge(replay.Config{Format: collector.FormatIPFIX, Options: opts})
	if err != nil {
		return nil, sp, err
	}
	pump, err := replay.NewPump(replay.PumpConfig{Format: collector.FormatIPFIX, DataAddr: br.DataAddr(), Options: opts})
	if err != nil {
		br.Close()
		return nil, sp, err
	}
	if err := br.ConnectPump(pump.CtrlAddr()); err != nil {
		pump.Close()
		br.Close()
		return nil, sp, err
	}
	return &wire{bridge: br, pump: pump}, sp, nil
}

// start runs the pump and the bridge's receive loops until close.
func (w *wire) start(ctx context.Context) {
	ctx, w.cancel = context.WithCancel(ctx)
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.pump.Run(ctx)
	}()
	w.bridge.Start(ctx)
}

// close stops both ends and waits for the pump loop to return.
func (w *wire) close() {
	if w.cancel != nil {
		w.cancel()
	}
	w.pump.Close()
	w.bridge.Close()
	if w.done != nil {
		<-w.done
	}
}

// pass is what one in-process run of a workload yielded: a cold RunAll,
// a warm one on the same engine, and the render of the cold results.
type pass struct {
	tr     *tracer
	model  modelSpans
	wireUp *span // nil unless the workload is the wire one
	cold   *span
	warm   *span
	render *span

	source      sourceCost // of the cold pass
	results     []*core.Result
	texts       map[string]string // experiment id → WriteText of the cold result
	warmTexts   map[string]string
	renderBytes int64
	stats       core.CacheStats
	prom        map[string]float64
	bridge      replay.Stats
	pump        replay.PumpStats
	kept        []*flowrec.Batch
}

// runPass runs the workload once in this process. traced adds the timing
// decorator around the source and a metrics registry; the untraced form
// exists only to price them.
func runPass(ctx context.Context, tr *tracer, id string, w workload, seed int64, spillDir string, traced bool) (*pass, error) {
	// Each pass starts from a collected heap handed back to the OS, so a
	// later pass does not run faster for inheriting the grown heap of an
	// earlier one.
	debug.FreeOSMemory()
	tr.trace = id
	p := &pass{tr: tr}
	opts := w.options(seed, spillDir)
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}

	var (
		src core.FlowSource
		wr  *wire
	)
	if w.wire {
		var err error
		if wr, p.wireUp, err = setupWire(tr, opts); err != nil {
			return nil, fmt.Errorf("%s: wire bring-up: %w", id, err)
		}
		defer wr.close()
		wr.start(ctx)
		src = wr.bridge
	} else {
		src = core.NewSyntheticSource(opts)
	}
	var ts *timedSource
	if traced {
		ts = &timedSource{inner: src, tr: tr}
		if w.wire {
			ts.keep = codecBatches
		}
		src = ts
	}

	engine := core.NewEngineWithSource(opts, src)
	defer engine.Data().Close()
	var err error
	if p.model, err = setupModel(tr, engine.Data()); err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}

	run := func(name string) (*span, []*core.Result, error) {
		sp := tr.start(name, nil)
		if ts != nil {
			ts.pass.Store(sp)
		}
		res, err := engine.RunAll(ctx, w.parallel())
		sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", id, name, err)
		}
		return sp, res, nil
	}
	var warm []*core.Result
	if p.cold, p.results, err = run("pass.cold"); err != nil {
		return nil, err
	}
	if p.warm, warm, err = run("pass.warm"); err != nil {
		return nil, err
	}

	p.render = tr.start("render", nil)
	if p.texts, err = renderEach(p.results); err != nil {
		return nil, err
	}
	cw := &countingWriter{}
	if err := report.WriteJSONAll(cw, p.results); err != nil {
		return nil, err
	}
	p.render.end()
	p.renderBytes = cw.n
	for _, text := range p.texts {
		p.renderBytes += int64(len(text))
	}

	if p.warmTexts, err = renderEach(warm); err != nil {
		return nil, err
	}
	p.source = p.sourceCost()
	p.stats = engine.Data().Stats()
	if reg != nil {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		p.prom = parseProm(buf.String())
	}
	if ts != nil {
		p.kept = ts.kept
	}
	if wr != nil {
		p.bridge, p.pump = wr.bridge.Stats(), wr.pump.Stats()
	}
	return p, nil
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return io.Discard.Write(b)
}

// renderEach renders every result the way `lockdown all` prints it, keyed
// by experiment id.
func renderEach(results []*core.Result) (map[string]string, error) {
	out := make(map[string]string, len(results))
	for _, r := range results {
		var buf strings.Builder
		if err := report.WriteText(&buf, r); err != nil {
			return nil, err
		}
		out[r.ID] = buf.String()
	}
	return out, nil
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(val, "%g", &v); err == nil {
			out[name] = v
		}
	}
	return out
}

// codecBatches is how many of the first batches the decorator saw are run
// through the IPFIX codec on their own.
const codecBatches = 256

// codecRows is the exporter's rows per IPFIX message.
const codecRows = 100

// codecCost encodes the batches into IPFIX messages of codecRows rows and
// decodes them again, timing each direction on its own.
func codecCost(batches []*flowrec.Batch) (encNsPerRow, decNsPerRow, bytesPerRow float64, err error) {
	var (
		enc  ipfix.Encoder
		buf  []byte
		ends []int
		rows int
	)
	exportTime := calendar.StudyEnd
	start := time.Now()
	for _, b := range batches {
		for lo := 0; lo < b.Len(); lo += codecRows {
			hi := min(lo+codecRows, b.Len())
			if buf, err = enc.EncodeBatch(buf, b, lo, hi, exportTime); err != nil {
				return 0, 0, 0, fmt.Errorf("ipfix encode: %w", err)
			}
			ends = append(ends, len(buf))
			rows += hi - lo
		}
	}
	encTime := time.Since(start)
	if rows == 0 {
		return 0, 0, 0, fmt.Errorf("ipfix codec timing: no rows in the first %d batches", len(batches))
	}

	dec := ipfix.NewDecoder()
	dst := flowrec.NewBatch(rows)
	start = time.Now()
	lo := 0
	for _, end := range ends {
		if _, err := dec.DecodeBatch(dst, buf[lo:end]); err != nil {
			return 0, 0, 0, fmt.Errorf("ipfix decode: %w", err)
		}
		lo = end
	}
	decTime := time.Since(start)
	if dst.Len() != rows {
		return 0, 0, 0, fmt.Errorf("ipfix decode: %d rows decoded, %d encoded", dst.Len(), rows)
	}
	n := float64(rows)
	return float64(encTime.Nanoseconds()) / n, float64(decTime.Nanoseconds()) / n, float64(len(buf)) / n, nil
}
