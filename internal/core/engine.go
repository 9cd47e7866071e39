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
	// MetricBatchMB is the flow-batch memory the experiment's scans read,
	// in MiB: over the distinct flow batches it drew from the dataset,
	// rows × the width of the columns each stores (Columns.RowBytes; 59
	// for a full-width batch). It is a property of the experiment and the
	// options, the same at any -parallel and cache budget.
	MetricBatchMB = "_runtime/batch-mb"
	// MetricScanChunks counts the grid items — one chunk each — the
	// experiment's sharded scans processed (0 = the experiment has no
	// sharded scan).
	MetricScanChunks = "_runtime/scan-chunks"
	// MetricScanWorkers counts the extra workers its sharded scans
	// borrowed from the engine's worker budget beyond the experiment's
	// own goroutine (0 = every scan ran sequentially).
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
// options plus the dataset cache shared by every experiment of the same
// engine. Experiments draw all synthetic inputs (generators, hourly
// series, sampled flows) from the cache so that inputs consumed by several
// experiments are generated exactly once.
type Env struct {
	Options
	Data *Dataset
	// pin keeps every flow batch a scan chunk draws through the Env
	// accessors resident until the chunk returns, so cache eviction never
	// races a reader. Only a chunk's Env (chunkEnv) has one; elsewhere it
	// is nil and the accessors read the cache unpinned.
	pin *Pin
	// drawn is the experiment's batch accounting (MetricBatchMB), which
	// every chunk pin reports to. The engine sets it per run; nil
	// (hand-built Envs) disables the accounting.
	drawn *drawnSet
	// ctx is the run's context: sharded scans observe it between chunks
	// so a cancelled RunAll stops mid-grid instead of finishing the
	// experiment. nil (hand-built Envs) means Background.
	ctx context.Context
	// budget is the global worker pool shared with the engine: sharded
	// scans borrow spare tokens from it so -parallel bounds the sum of
	// experiment- and chunk-level concurrency. nil disables borrowing
	// (scans run on the calling goroutine only).
	budget *workerBudget
	// scan accumulates the run's sharding activity for the _runtime/scan-*
	// metrics. nil (hand-built Envs) disables the accounting.
	scan *scanStats
}

// Convenience accessors so experiment code stays terse.

func (env *Env) gen(vp synth.VantagePoint) (*synth.Generator, error) {
	return env.Data.Generator(vp)
}

func (env *Env) series(vp synth.VantagePoint, from, to time.Time) (*timeseries.Series, error) {
	return env.Data.Series(vp, from, to)
}

// partial returns reduction r of the day batch k names (Dataset.partial),
// drawing the batch through the run's pin when it has to.
func (env *Env) partial(k FlowKey, r *reduction) (any, error) { return env.Data.partial(k, r, env.pin) }

// CacheStats summarises the dataset cache's effectiveness and, when a
// cache budget is set, its eviction activity.
type CacheStats struct {
	// Entries counts all memoized values (generators, series, flow
	// batches). Each was installed by one miss and none is ever removed.
	Entries int
	// Hits and Misses count memoized lookups.
	Hits   int64
	Misses int64
	// Budget is the Options.CacheBudget in force (0 = unlimited).
	Budget int64
	// Evictions counts resident flow batches dropped to fit the budget,
	// forgotten or left in their span.
	Evictions int64
	// Spills counts flow-batch entries appended to a span file (each
	// entry is written once; later evictions reuse the span). Always 0
	// without Options.CacheDir.
	Spills int64
	// Faults counts evicted entries brought back for an access, whether
	// mapped from their span or rebuilt from the flow source.
	Faults int64
	// Regens counts faults that found a damaged span and rebuilt the
	// batch from the flow source instead.
	Regens int64
	// ResidentBytes estimates the heap held by resident flow batches.
	ResidentBytes int64
	// SpilledBytes is the total size of live spans on disk.
	SpilledBytes int64
	// Pinned counts flow-batch entries currently pinned by a running
	// experiment or scan chunk. Outside a run it must be 0: a non-zero
	// balance after RunAll returns means a pin leaked (the cancellation
	// tests assert this).
	Pinned int
}

// Engine executes experiments against one shared dataset cache. A zero
// Engine is not usable; construct it with NewEngine. The engine is safe
// for concurrent use.
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
			"Grid chunks processed by intra-experiment sharded scans."),
		scanWorkers: reg.Counter("lockdown_scan_extra_workers_total",
			"Extra workers sharded scans borrowed from the engine's budget."),
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
// result.
func (e *Engine) Run(ctx context.Context, id string) (*Result, error) {
	exp, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown experiment %q (known: %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A standalone Run has no RunMany pool to share with: give its
	// sharded scans a budget of GOMAXPROCS, of which the calling
	// goroutine is one.
	budget := newWorkerBudget(defaultScanWorkers())
	budget.acquire()
	defer budget.release()
	e.data.declare([]Experiment{exp})
	return e.runTimed(ctx, exp, budget)
}

// runTimed executes an experiment, records its wall time, the batch
// memory it read and its scan activity into the result's runtime metrics,
// and appends the verdict of each of its claims to the notes.
// The batches are read, and pinned, by the experiment's scan chunks, which
// report them to the Env's drawn set. budget is the shared worker pool
// the experiment's sharded scans may borrow spare tokens from; the caller
// must already hold one of its tokens.
func (e *Engine) runTimed(ctx context.Context, exp Experiment, budget *workerBudget) (*Result, error) {
	// The span is the wall-clock measurement: its End duration stamps
	// MetricWallMS and feeds the duration histogram, so the timing table,
	// -json output, /metrics and the trace file all report one number.
	sp := e.opts.Tracer.Start("exp:"+exp.ID, "experiment")
	drawn := &drawnSet{seen: make(map[*flowEntry]struct{})}
	env := &Env{Options: e.opts, Data: e.data, drawn: drawn, ctx: ctx, budget: budget, scan: &scanStats{}}
	res, err := exp.Run(env)
	if err != nil {
		e.m.failures.Add(1)
		if sp.Active() {
			sp.EndArgs(map[string]any{"id": exp.ID, "error": err.Error()})
		} else {
			sp.End()
		}
		return nil, fmt.Errorf("core: experiment %s: %w", exp.ID, err)
	}
	chunks := env.scan.chunks.Load()
	extra := env.scan.extraWorkers.Load()
	var wall time.Duration
	if sp.Active() {
		wall = sp.EndArgs(map[string]any{"id": exp.ID, "scan_chunks": chunks})
	} else {
		wall = sp.End()
	}
	res.Metrics[MetricWallMS] = float64(wall) / float64(time.Millisecond)
	res.Metrics[MetricBatchMB] = drawn.batchMB()
	res.Metrics[MetricScanChunks] = float64(chunks)
	res.Metrics[MetricScanWorkers] = float64(extra)
	for _, c := range exp.claims {
		res.Notes = append(res.Notes, c.verdict(res.Metrics))
	}
	e.m.experiments.Add(1)
	e.m.duration.Observe(wall.Seconds())
	e.m.scanChunks.Add(chunks)
	e.m.scanWorkers.Add(extra)
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
	e.data.declare(exps)
	// The worker budget carries the full -parallel allowance even when
	// fewer experiments exist: engine workers hold a token each while
	// running an experiment, and the intra-experiment sharded scans
	// borrow whatever is spare, so the two levels together never exceed
	// parallel goroutines doing experiment work.
	budget := newWorkerBudget(parallel)
	workers := parallel
	if workers > len(exps) {
		workers = len(exps)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

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
				res, err := e.runTimed(ctx, exps[i], budget)
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

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
