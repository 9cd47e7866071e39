package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the intra-experiment parallel scan layer. The engine
// parallelizes across experiments (RunAll's worker pool); ShardedScan
// parallelizes *within* one experiment over its grid (days, vantage
// points or sampled days), scanning the items on workers borrowed from the
// same global budget that bounds RunAll, and merging the per-item partial
// aggregates in grid order.
//
// The bit-identity contract of the suite survives sharding because of two
// structural rules, not because of any particular schedule:
//
//  1. The partition is one item per chunk — never a function of the
//     worker count, the cache budget, or timing. A day is a flow key's
//     span, so a day chunk's pin holds exactly the keys of its day.
//  2. Partial aggregates merge in ascending chunk index, and every
//     aggregate the experiments merge is exact: byte volumes sum as
//     uint64 (integer addition is associative at any magnitude — float64
//     addition is not once a busy week's volume crosses 2^53), plus set
//     unions, integer counters, and maps with chunk-disjoint keys.
//     Conversions to float64 and normalisations (divisions, minima)
//     happen once, after the full merge, on exact operands.
//
// Worker-budget sharing: RunMany sizes one workerBudget from -parallel and
// every engine worker holds a token while it runs an experiment, so spare
// tokens exist exactly when engine workers idle (the tail of a suite run,
// or `lockdown run` with one experiment). A sharded scan borrows spare
// tokens with a non-blocking tryAcquire — it never waits, so the calling
// goroutine always makes progress and the two levels cannot deadlock or
// oversubscribe: total scan+experiment concurrency stays <= -parallel.

// workerBudget is the global concurrency budget shared by the engine's
// experiment workers and the intra-experiment sharded scans. It is a
// counting semaphore: Acquire blocks (engine workers, which must run their
// experiment eventually), TryAcquire does not (scan workers, which are an
// opportunistic acceleration).
type workerBudget struct {
	tokens chan struct{}
}

// newWorkerBudget returns a budget of n tokens (n < 1 is clamped to 1).
func newWorkerBudget(n int) *workerBudget {
	if n < 1 {
		n = 1
	}
	b := &workerBudget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// acquire takes a token, blocking until one is available.
func (b *workerBudget) acquire() { <-b.tokens }

// tryAcquire takes a token if one is free and reports whether it did.
func (b *workerBudget) tryAcquire() bool {
	select {
	case <-b.tokens:
		return true
	default:
		return false
	}
}

// release returns a token.
func (b *workerBudget) release() { b.tokens <- struct{}{} }

// scanStats accumulates one experiment run's sharding activity; the
// engine stamps it onto the result as _runtime/scan-* metrics.
type scanStats struct {
	chunks       atomic.Int64 // chunks scanned across all sharded scans
	extraWorkers atomic.Int64 // budget tokens borrowed beyond the caller
}

// ShardedScan runs scan on every item of the grid [0, n), one item per
// chunk, and folds the per-item partial aggregates with merge in ascending
// item order, returning the final aggregate.
//
// Each scan invocation receives a chunk-scoped Env: same options and
// dataset, but a private Pin that keeps every batch the chunk draws
// resident until the chunk completes — the cache never evicts a
// batch mid-chunk, and released chunks let it converge back to its budget.
// Chunk envs carry no budget, so a nested ShardedScan inside scan runs
// sequentially instead of recursively forking.
//
// Extra workers are borrowed from the engine's worker budget with a
// non-blocking tryAcquire (the calling goroutine always scans too, so a
// scan needs no spare tokens to finish). scan must treat its item i as
// its only input: determinism rests on the partition and merge order
// alone, so merge must be exact (uint64 sums, set unions, disjoint maps,
// order-preserving appends).
func ShardedScan[T any](env *Env, n int, scan func(env *Env, i int) (T, error), merge func(dst, src T) T) (T, error) {
	var zero T
	if n <= 0 {
		return zero, nil
	}
	ctx := env.context()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	if env.scan != nil {
		env.scan.chunks.Add(int64(n))
	}

	parts := make([]T, n)
	var (
		next     atomic.Int64 // next item to claim
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}

	worker := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			// Chunks run concurrently, so each gets a root span (its own
			// lane) rather than a child of the experiment span.
			sp := env.Tracer.Start("scan-chunk", "scan")
			cenv := env.chunkEnv()
			part, err := scan(cenv, i)
			cenv.pin.Release()
			if sp.Active() {
				sp.EndArgs(map[string]any{"item": i})
			}
			if err != nil {
				fail(err)
				return
			}
			parts[i] = part
		}
	}

	// Borrow spare tokens for extra scan workers; the caller is a worker
	// too, so zero borrowed tokens degrades to the sequential walk.
	extra := 0
	if env.budget != nil {
		for extra < n-1 && env.budget.tryAcquire() {
			extra++
		}
	}
	if env.scan != nil && extra > 0 {
		env.scan.extraWorkers.Add(int64(extra))
	}

	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer env.budget.release()
			worker()
		}()
	}
	worker()
	wg.Wait()

	if firstErr != nil {
		return zero, firstErr
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	acc := parts[0]
	for i := 1; i < n; i++ {
		acc = merge(acc, parts[i])
	}
	return acc, nil
}

// ScanDays is the day-grid convenience wrapper over ShardedScan: each day
// is a chunk, scanned into a fresh partial aggregate by visit, and the
// partials merge in grid order.
func ScanDays[T any](env *Env, days []time.Time, newPart func() T,
	visit func(env *Env, part T, day time.Time) error,
	merge func(dst, src T) T) (T, error) {
	return ShardedScan(env, len(days),
		func(env *Env, i int) (T, error) {
			part := newPart()
			if err := visit(env, part, days[i]); err != nil {
				var zero T
				return zero, err
			}
			return part, nil
		}, merge)
}

// chunkEnv derives the execution environment of one chunk: same options,
// dataset, context and stats, but a private pin (released by the scan
// when the chunk completes, yet still reporting the entries it draws to
// the experiment's batch accounting) and no budget (nested scans run
// sequentially).
func (env *Env) chunkEnv() *Env {
	pin := env.Data.NewPin()
	if env.pin != nil {
		pin.drawn = env.pin.drawn
	}
	return &Env{
		Options: env.Options,
		Data:    env.Data,
		pin:     pin,
		ctx:     env.ctx,
		scan:    env.scan,
	}
}

// context returns the run's context (Background for hand-built Envs).
func (env *Env) context() context.Context {
	if env.ctx == nil {
		return context.Background()
	}
	return env.ctx
}

// defaultScanWorkers sizes the worker budget of a single-experiment Run,
// where no RunMany pool exists to share with.
func defaultScanWorkers() int { return runtime.GOMAXPROCS(0) }
