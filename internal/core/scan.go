package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lockdown/internal/synth"
)

// This file is the intra-experiment parallel scan layer. The engine
// parallelizes across experiments (RunAll's worker pool); ShardedScan
// parallelizes *within* one experiment by partitioning its hour grid (or
// vantage-point set, or sampled-day list) into contiguous chunks, scanning
// the chunks on workers borrowed from the same global budget that bounds
// RunAll, and merging the per-chunk partial aggregates in chunk order.
//
// The bit-identity contract of the suite survives sharding because of two
// structural rules, not because of any particular schedule:
//
//  1. The chunk partition is a pure function of the grid length and the
//     chunk size — never of the worker count, the cache budget, or timing.
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
	prefetched   atomic.Int64 // chunks warmed by the read-ahead prefetcher
}

// ScanOptions tune one sharded scan.
type ScanOptions struct {
	// Chunk is the number of grid items per chunk (the merge granularity).
	// Hour-grid walkers use 24 (one day per chunk); scans whose items are
	// already expensive (vantage points, sampled days) use 1. Values < 1
	// select the whole grid as one chunk. Options.ScanChunk overrides it
	// for every scan of a run (the determinism tests sweep it).
	Chunk int
	// Prefetch, when set, is the read-ahead hook: it should touch the
	// chunk's inputs through the given Env (fault or generate them into
	// the dataset cache) without aggregating. A dedicated prefetcher —
	// gated on a spare budget token, bounded to stay at most one worker
	// set ahead of the scan — faults chunk h+1 while chunk h is scanned.
	// Prefetching only warms the cache; it cannot change any result.
	Prefetch func(env *Env, lo, hi int) error
}

// chunkSize resolves the effective chunk size for a grid of n items.
func (o ScanOptions) chunkSize(env *Env, n int) int {
	c := o.Chunk
	if env.ScanChunk > 0 {
		c = env.ScanChunk
	}
	if c < 1 || c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ShardedScan partitions the index range [0, n) into contiguous chunks of
// opts.Chunk items, runs scan on every chunk, and folds the per-chunk
// partial aggregates with merge in ascending chunk order, returning the
// final aggregate.
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
// scan needs no spare tokens to finish). scan must treat its [lo, hi)
// range as its only input: determinism rests on the chunk partition and
// merge order alone, so merge must be exact (uint64 sums, set unions,
// disjoint maps, order-preserving appends).
func ShardedScan[T any](env *Env, n int, opts ScanOptions, scan func(env *Env, lo, hi int) (T, error), merge func(dst, src T) T) (T, error) {
	var zero T
	if n <= 0 {
		return zero, nil
	}
	ctx := env.context()
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	c := opts.chunkSize(env, n)
	chunks := (n + c - 1) / c
	if env.scan != nil {
		env.scan.chunks.Add(int64(chunks))
	}

	parts := make([]T, chunks)
	var (
		next     atomic.Int64 // next chunk index to claim
		done     atomic.Int64 // chunks completed (prefetch lead bound)
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
			if i >= chunks {
				return
			}
			if failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			lo := i * c
			hi := lo + c
			if hi > n {
				hi = n
			}
			// Chunks run concurrently, so each gets a root span (its own
			// lane) rather than a child of the experiment span.
			sp := env.Tracer.Start("scan-chunk", "scan")
			cenv := env.chunkEnv()
			part, err := scan(cenv, lo, hi)
			cenv.pin.Release()
			if sp.Active() {
				sp.EndArgs(map[string]any{"lo": lo, "hi": hi})
			}
			if err != nil {
				fail(err)
				return
			}
			parts[i] = part
			done.Add(1)
		}
	}

	// Reserve the prefetcher's token before the extra-worker loop drains
	// the spares: one token of read-ahead beats one more scan worker when
	// the scan is faulting or generating its inputs, and the loop below
	// would otherwise leave the prefetcher nothing to acquire.
	prefetching := opts.Prefetch != nil && env.budget != nil && chunks > 1 &&
		env.budget.tryAcquire()

	// Borrow spare tokens for extra scan workers; the caller is a worker
	// too, so zero borrowed tokens degrades to the sequential walk.
	extra := 0
	if env.budget != nil {
		for extra < chunks-1 && env.budget.tryAcquire() {
			extra++
		}
	}
	if env.scan != nil && extra > 0 {
		env.scan.extraWorkers.Add(int64(extra))
	}

	var wg sync.WaitGroup
	stopPrefetch := make(chan struct{})
	if prefetching {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer env.budget.release()
			prefetchChunks(env, n, c, chunks, extra+1, opts.Prefetch, &done, &failed, stopPrefetch)
		}()
	}
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer env.budget.release()
			worker()
		}()
	}
	worker()
	close(stopPrefetch) // scan work is claimed; stop the read-ahead
	wg.Wait()

	if firstErr != nil {
		return zero, firstErr
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	acc := parts[0]
	for i := 1; i < chunks; i++ {
		acc = merge(acc, parts[i])
	}
	return acc, nil
}

// prefetchChunks is the read-ahead dispatcher: it walks the chunks in
// grid order, touching each chunk's inputs through a short-lived pin so
// the batches of chunk h+1 fault (or generate) into the cache while
// chunk h is being scanned. When spare budget tokens exist it fans out —
// each borrowed token warms one chunk concurrently, so several upcoming
// hours fault in parallel — and with none it degrades to the original
// serial walk on its own reserved token. The lead bound grows with the
// active warmers (lead = workers + 1 + active warmers), keeping the
// read-ahead frontier at most one in-flight set past the completed scan
// frontier, so under a tight cache budget it does not evict the very
// chunks the scan is using. Prefetch errors are ignored: the scan will
// surface them (or succeed anyway) when it reads for real.
func prefetchChunks(env *Env, n, c, chunks, workers int, prefetch func(*Env, int, int) error, scanned *atomic.Int64, failed *atomic.Bool, stop <-chan struct{}) {
	var warmers atomic.Int64
	var wg sync.WaitGroup
	defer wg.Wait()
	baseLead := int64(workers + 1)
	for i := 0; i < chunks; i++ {
		for int64(i) > scanned.Load()+baseLead+warmers.Load() {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		if failed.Load() {
			return
		}
		lo := i * c
		hi := lo + c
		if hi > n {
			hi = n
		}
		warm := func() {
			cenv := env.chunkEnv()
			_ = prefetch(cenv, lo, hi)
			cenv.pin.Release()
			if env.scan != nil {
				env.scan.prefetched.Add(1)
			}
			if env.Tracer != nil {
				env.Tracer.Instant("scan-prefetch", "scan", map[string]any{"lo": lo, "hi": hi})
			}
		}
		if env.budget != nil && env.budget.tryAcquire() {
			warmers.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer env.budget.release()
				defer warmers.Add(-1)
				warm()
			}()
		} else {
			warm()
		}
	}
}

// ScanHours is the hour-grid convenience wrapper over ShardedScan: it
// partitions hours into day-sized chunks (24 hours, unless overridden by
// Options.ScanChunk), scans each chunk into a fresh partial aggregate with
// per-hour visits, and merges the partials in grid order. get is the
// read-ahead hook: the batch accessor the scan visits per hour, used to
// fault hours ahead of the scan frontier.
func ScanHours[T any](env *Env, hours []time.Time, newPart func() T,
	visit func(env *Env, part T, hour time.Time) error,
	merge func(dst, src T) T,
	get func(env *Env, hour time.Time) error) (T, error) {
	opts := ScanOptions{Chunk: 24}
	if get != nil {
		opts.Prefetch = func(env *Env, lo, hi int) error {
			for _, h := range hours[lo:hi] {
				if err := get(env, h); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return ShardedScan(env, len(hours), opts,
		func(env *Env, lo, hi int) (T, error) {
			part := newPart()
			for _, h := range hours[lo:hi] {
				if err := visit(env, part, h); err != nil {
					var zero T
					return zero, err
				}
			}
			return part, nil
		}, merge)
}

// prefetchFlowHours returns a ScanHours read-ahead hook that faults the
// plain flow batches of vp.
func prefetchFlowHours(vp synth.VantagePoint) func(*Env, time.Time) error {
	return func(env *Env, h time.Time) error {
		_, err := env.flowBatch(vp, h)
		return err
	}
}

// prefetchVPNHours is prefetchFlowHours for the gateway-pinned batches.
func prefetchVPNHours(vp synth.VantagePoint) func(*Env, time.Time) error {
	return func(env *Env, h time.Time) error {
		_, err := env.vpnFlowBatch(vp, h)
		return err
	}
}

// prefetchComponentHours is prefetchFlowHours for one named component.
func prefetchComponentHours(vp synth.VantagePoint, name string) func(*Env, time.Time) error {
	return func(env *Env, h time.Time) error {
		_, err := env.componentFlowBatch(vp, name, h)
		return err
	}
}

// chunkEnv derives the execution environment of one chunk: same options,
// dataset, context and stats, but a private pin (released by the scan
// when the chunk completes) and no budget (nested scans run sequentially).
func (env *Env) chunkEnv() *Env {
	return &Env{
		Options: env.Options,
		Data:    env.Data,
		pin:     env.newPin(),
		ctx:     env.ctx,
		scan:    env.scan,
	}
}

// newPin returns a pin with a lifetime of its own that still reports the
// entries it draws to the experiment's batch accounting.
func (env *Env) newPin() *Pin {
	p := env.Data.NewPin()
	if env.pin != nil {
		p.drawn = env.pin.drawn
	}
	return p
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
