// Package core is the lockdown-analysis pipeline: it wires the synthetic
// vantage-point generator and the analysis packages together into one
// Experiment per table and figure of "The Lockdown Effect" (IMC 2020), so
// that `lockdown run <id>`, `lockdown all` or the benchmark harness can
// regenerate any of them.
//
// Execution is organised around an Engine: experiments receive an Env
// carrying the run Options plus a shared Dataset cache that memoizes every
// synthetic input (generators, hourly series, per-day flow batches) under
// the key it is generated from, so inputs consumed by several experiments
// are generated once. Engine.RunAll executes the registry on a bounded
// worker pool with context cancellation and assembles results in paper
// order; because generation is a pure function of the options and that
// key, the metrics are bit-identical at every parallelism level.
//
// Each experiment returns a Result holding human-readable tables plus a
// set of named metrics, which EXPERIMENTS.md records. An experiment
// states the paper's findings once, as claims on those metrics declared
// where it registers; the engine appends every claim's verdict to the
// result's notes, and the tests require each verdict to hold.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// Options tune how expensive the flow-level experiments are. The zero
// value selects sensible defaults.
type Options struct {
	// FlowScale scales the number of sampled flow records per hour for
	// flow-level experiments (1 = full default density). Values below 1
	// make runs cheaper; the paper's qualitative results are insensitive
	// to it because all comparisons are relative.
	FlowScale float64
	// Seed overrides the generator seed (0 keeps the default).
	Seed int64
	// CacheBudget and CacheDir have no effect: the dataset holds no
	// batch to bound or spill. Read by bench/ until ROADMAP item 4(a).
	CacheBudget int64
	CacheDir    string
	// Model, if non-nil, supplies the base traffic model per vantage
	// point instead of synth.DefaultConfig — this is how a compiled
	// scenario (internal/scenario) is injected into the pipeline. The
	// FlowScale and Seed options still apply on top of whatever it
	// returns.
	Model func(synth.VantagePoint) synth.Config
	// Obs, if non-nil, is the metrics registry the run's subsystems
	// register their instruments with (served at -metrics-addr). nil is
	// fully supported: every subsystem still maintains the same atomic
	// instruments standalone — CacheStats and friends read them either
	// way — they are just not exported anywhere. Neither the registry
	// nor the tracer ever changes a result: they only observe.
	Obs *obs.Registry
	// Tracer, if non-nil, records spans (experiments, scan chunks,
	// reductions, bridge fetches) and events as Chrome trace_event JSON
	// (the -trace flag). nil disables tracing at the cost of a nil check.
	Tracer *obs.Tracer
}

func (o Options) flowScale() float64 {
	if o.FlowScale <= 0 {
		return 0.5
	}
	return o.FlowScale
}

// synthConfig derives the generator configuration of a vantage point
// from the options. It is the single Options→synth.Config mapping: the
// dataset cache and the replay oracles (SyntheticSource) both use it, so
// a pump, a bridge and an engine built from equal Options can never
// model different flows.
func (o Options) synthConfig(vp synth.VantagePoint) synth.Config {
	var cfg synth.Config
	if o.Model != nil {
		cfg = o.Model(vp)
	} else {
		cfg = synth.DefaultConfig(vp)
	}
	cfg.FlowScale = o.flowScale()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return cfg
}

// Table is a rendered result table: a title, column headers and rows of
// formatted cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Result is the outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	// Metrics are named numeric findings (growth factors, ratios,
	// correlation coefficients) used by tests and EXPERIMENTS.md.
	Metrics map[string]float64
	// Notes are the experiment's own summary lines, which restate
	// measured numbers, followed by one verdict line per claim of the
	// experiment ("claim (§7) …: holds, 5.738 in [3.000, 12.000]").
	Notes []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: make(map[string]float64)}
}

func (r *Result) addTable(t Table)             { r.Tables = append(r.Tables, t) }
func (r *Result) note(format string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(format, a...)) }

// Metric returns a named metric (0 if absent).
func (r *Result) Metric(name string) float64 { return r.Metrics[name] }

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the short identifier used by the CLI and the benchmarks
	// (e.g. "fig1", "tab1", "fig11a").
	ID string
	// Artifact names the paper artifact ("Figure 1", "Table 2").
	Artifact string
	// Title is a one-line description.
	Title string
	// Run executes the experiment against the environment's options and
	// shared dataset cache.
	Run func(*Env) (*Result, error)
	// claims are the paper's findings this experiment reproduces.
	claims []claim
	// reads are the flow batches the experiment reads, and the reductions
	// it takes of them (reads.go).
	reads []dayRead
}

// claim pins one finding of the paper to an experiment's metrics: the
// value of metric, or metric − minus when minus is set, lies in the
// inclusive band [lo, hi]; an infinite bound makes the band one-sided.
// section and text cite the paper, and text gives the paper's number
// where it has one, so a band looser than that number shows as such.
type claim struct {
	section, text string
	metric, minus string
	lo, hi        float64
}

var inf = math.Inf(1)

// verdict evaluates the claim on a result's metrics and renders it as a
// note. A missing metric fails the claim by name instead of reading 0, so
// a renamed metric cannot pass a band that happens to contain 0.
func (c claim) verdict(metrics map[string]float64) string {
	head := fmt.Sprintf("claim (%s) %s: ", c.section, c.text)
	v, ok := metrics[c.metric]
	if !ok {
		return head + fmt.Sprintf("does not hold: no metric %q", c.metric)
	}
	if c.minus != "" {
		m, ok := metrics[c.minus]
		if !ok {
			return head + fmt.Sprintf("does not hold: no metric %q", c.minus)
		}
		v -= m
	}
	if v >= c.lo && v <= c.hi {
		return head + fmt.Sprintf("holds, %.3f in [%.3f, %.3f]", v, c.lo, c.hi)
	}
	return head + fmt.Sprintf("does not hold, %.3f not in [%.3f, %.3f]", v, c.lo, c.hi)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

// paperOrder fixes the presentation order of the experiments (the order in
// which the paper introduces the artifacts, followed by the ablations). A
// new experiment is listed here too, or All leaves it out.
var paperOrder = []string{
	"fig1", "fig2a", "fig2bc", "fig3a", "fig3b", "fig4", "fig5", "fig6",
	"fig7a", "fig7b", "tab1", "fig8", "fig9", "fig10", "fig11a", "fig11b",
	"fig12", "tab2", "appB", "ablation-vpn", "ablation-binsize",
}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment in paper order. paperOrder lists every
// registered experiment once (TestPaperOrderListsEveryExperiment).
func All() []Experiment {
	out := make([]Experiment, 0, len(paperOrder))
	for _, id := range paperOrder {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the sorted experiment identifiers.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ByID looks an experiment up by its identifier.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes the experiment with the given identifier on a fresh
// single-use engine. Callers running several experiments should construct
// one Engine instead so the experiments share the dataset cache.
func Run(id string, opts Options) (*Result, error) {
	return NewEngine(opts).Run(context.Background(), id)
}

// f2 formats a float with two decimals for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with three decimals for table cells.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
