package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"lockdown/internal/obs"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

// Runtime-metric keys the engine stamps onto every result. They describe
// the execution, not the experiment, so they are excluded from determinism
// comparisons and from the generated EXPERIMENTS.md.
const (
	// MetricWallMS is the experiment's wall-clock time in milliseconds.
	MetricWallMS = "_runtime/wall-ms"
	// MetricBatchMB is the flow-batch memory the experiment's reads stand
	// for, in MiB: over the distinct flow batches its pass took,
	// rows × the width of the columns each stores (Columns.RowBytes; 59
	// for a full-width batch). It is a property of the experiment and the
	// options, the same at any -parallel.
	MetricBatchMB = "_runtime/batch-mb"
	// MetricScanChunks counts the keys its reads took — one chunk each —
	// in the experiment's declared-read pass (0 = the experiment declares
	// no read).
	MetricScanChunks = "_runtime/scan-chunks"
	// MetricScanWorkers counts the extra workers its declared-read pass
	// borrowed from the engine's worker budget beyond the experiment's own
	// goroutine (0 = the pass ran sequentially).
	MetricScanWorkers = "_runtime/scan-extra-workers"
	// MetricScanPrefetch is retired: the read-ahead prefetcher it counted
	// is gone and the engine never stamps it. The name stays because
	// bench/ indexes Result.Metrics with it (reads 0).
	MetricScanPrefetch = "_runtime/scan-prefetched"
)

// IsRuntimeMetric reports whether the metric key was stamped by the engine
// rather than produced by the experiment itself.
func IsRuntimeMetric(key string) bool {
	return strings.HasPrefix(key, "_runtime/")
}

// Env is the execution environment handed to each experiment: the run
// options, the dataset cache shared by every experiment of the same
// engine, and the partials of the experiment's declared reads. Experiments
// draw all synthetic inputs (generators, hourly series) from the cache so
// that inputs consumed by several experiments are generated exactly once;
// their flow reads the engine has already taken (readPlan.takeReads).
type Env struct {
	Options
	Data *Dataset
	// parts are the partials of the experiment's reads: parts[i] holds
	// those of Experiment.reads[i], one per day, in declared day order.
	parts [][]dayPart
}

// Convenience accessors so experiment code stays terse.

func (env *Env) gen(vp synth.VantagePoint) (*synth.Generator, error) {
	return env.Data.Generator(vp)
}

func (env *Env) series(vp synth.VantagePoint, from, to time.Time) (*timeseries.Series, error) {
	return env.Data.Series(vp, from, to)
}

// CacheStats summarises the dataset cache's effectiveness.
type CacheStats struct {
	// Hits and Misses count the lookups of the model and series memos:
	// a miss built the value, a hit found it.
	Hits   int64
	Misses int64
	// Spills, Faults, Regens and SpilledBytes are always 0: read by
	// bench/ until ROADMAP item 4(a).
	Spills, Faults, Regens, SpilledBytes int64
}

// Engine executes experiments against one shared dataset cache. A zero
// Engine is not usable; construct it with NewEngine. The engine is safe
// for concurrent use, but concurrent runs do not share draws: each run
// plans its own reads and draws each of its keys itself.
type Engine struct {
	opts Options
	data *Dataset
	m    engineMetrics
}

// engineMetrics are the engine's registry instruments. They are created
// from Options.Obs through the nil-safe registry, so they exist (as
// standalone atomics) even without a metrics server; the `_runtime/*`
// stamps and these instruments are fed from the same measurements.
type engineMetrics struct {
	experiments *obs.Counter
	failures    *obs.Counter
	duration    *obs.Histogram
	scanChunks  *obs.Counter
	scanWorkers *obs.Counter
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		experiments: reg.Counter("lockdown_experiments_total",
			"Experiments completed successfully."),
		failures: reg.Counter("lockdown_experiment_failures_total",
			"Experiments that returned an error."),
		duration: reg.Histogram("lockdown_experiment_seconds",
			"Wall-clock duration of one experiment.", obs.DurationBuckets),
		scanChunks: reg.Counter("lockdown_scan_chunks_total",
			"Keys taken by the declared-read passes, one chunk each."),
		scanWorkers: reg.Counter("lockdown_scan_extra_workers_total",
			"Extra workers the declared-read passes borrowed from the engine's budget."),
	}
}

// NewEngine returns an engine whose experiments share one dataset cache
// built from opts.
func NewEngine(opts Options) *Engine {
	return &Engine{opts: opts, data: NewDataset(opts), m: newEngineMetrics(opts.Obs)}
}

// NewEngineWithSource is NewEngine with the dataset's flow batches drawn
// from src instead of the in-process generator (nil selects the
// generator). The engine's determinism contract then rests on src
// returning batches bit-identical to the generator at the same options.
func NewEngineWithSource(opts Options, src FlowSource) *Engine {
	return &Engine{opts: opts, data: NewDatasetWithSource(opts, src), m: newEngineMetrics(opts.Obs)}
}

// Data returns the engine's dataset cache (for stats and tests).
func (e *Engine) Data() *Dataset { return e.data }

// Run executes one experiment by ID, stamping runtime metrics onto the
// result: RunMany of the one ID at the default budget, GOMAXPROCS, whose
// spare tokens all go to the experiment's declared-read pass.
func (e *Engine) Run(ctx context.Context, id string) (*Result, error) {
	rs, err := e.RunMany(ctx, []string{id}, 0)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runTimed takes the experiment's declared reads from the run's plan in
// one pass (readPlan.takeReads), runs it on their partials, records its
// wall time, the batch memory its reads stand for and its pass activity
// into the result's runtime metrics, and appends the verdict of each of
// its claims to the notes. budget is the shared worker pool the pass may borrow
// spare tokens from; the caller must already hold one of its tokens.
func (e *Engine) runTimed(ctx context.Context, exp Experiment, plan *readPlan, budget *workerBudget) (*Result, error) {
	// The span is the wall-clock measurement: its End duration stamps
	// MetricWallMS and feeds the duration histogram, so the timing table,
	// -json output, /metrics and the trace file all report one number.
	sp := e.opts.Tracer.Start("exp:"+exp.ID, "experiment")
	parts, extra, err := plan.takeReads(ctx, exp.reads, budget)
	var res *Result
	if err == nil {
		res, err = exp.Run(&Env{Options: e.opts, Data: e.data, parts: parts})
	}
	if err != nil {
		e.m.failures.Add(1)
		if sp.Active() {
			sp.EndArgs(map[string]any{"id": exp.ID, "error": err.Error()})
		} else {
			sp.End()
		}
		return nil, fmt.Errorf("core: experiment %s: %w", exp.ID, err)
	}
	chunks := 0
	for _, p := range parts {
		chunks += len(p)
	}
	var wall time.Duration
	if sp.Active() {
		wall = sp.EndArgs(map[string]any{"id": exp.ID, "scan_chunks": chunks})
	} else {
		wall = sp.End()
	}
	res.Metrics[MetricWallMS] = float64(wall) / float64(time.Millisecond)
	res.Metrics[MetricBatchMB] = plan.batchMB(exp.reads)
	res.Metrics[MetricScanChunks] = float64(chunks)
	res.Metrics[MetricScanWorkers] = float64(extra)
	for _, c := range exp.claims {
		res.Notes = append(res.Notes, c.verdict(res.Metrics))
	}
	e.m.experiments.Add(1)
	e.m.duration.Observe(wall.Seconds())
	e.m.scanChunks.Add(int64(chunks))
	e.m.scanWorkers.Add(int64(extra))
	return res, nil
}

// RunAll executes every registered experiment on a bounded worker pool and
// returns the results in paper order regardless of completion order.
// parallel <= 0 selects GOMAXPROCS workers. The first failing experiment
// cancels the remaining work and its error is returned; ctx cancellation
// does the same with ctx's error.
func (e *Engine) RunAll(ctx context.Context, parallel int) ([]*Result, error) {
	return e.RunMany(ctx, nil, parallel)
}

// RunMany is RunAll restricted to the given experiment IDs (nil means all,
// in paper order). Results are returned in the order the IDs were given.
func (e *Engine) RunMany(ctx context.Context, ids []string, parallel int) ([]*Result, error) {
	var exps []Experiment
	if ids == nil {
		exps = All()
	} else {
		for _, id := range ids {
			exp, ok := ByID(id)
			if !ok {
				return nil, fmt.Errorf("core: unknown experiment %q (known: %v)", id, IDs())
			}
			exps = append(exps, exp)
		}
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The run's flow state: it dies with the run, however the run ends.
	plan, err := newReadPlan(e.data, exps)
	if err != nil {
		return nil, err
	}
	// The worker budget carries the full -parallel allowance even when
	// fewer experiments exist: engine workers hold a token each while
	// running an experiment, and the declared-read passes borrow whatever
	// is spare, so the two levels together never exceed parallel
	// goroutines doing experiment work.
	budget := newWorkerBudget(parallel)
	workers := min(parallel, len(exps))

	suite := e.opts.Tracer.Start("suite", "engine")
	defer func() {
		if suite.Active() {
			suite.EndArgs(map[string]any{"experiments": len(exps), "parallel": parallel})
		}
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*Result, len(exps))
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				budget.acquire()
				res, err := e.runTimed(ctx, exps[i], plan, budget)
				budget.release()
				if err != nil {
					fail(err)
					return
				}
				results[i] = res
			}
		}()
	}
feed:
	for i := range exps {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	err = firstErr
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}
