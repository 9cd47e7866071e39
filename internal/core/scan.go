package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the declared-read pass. An experiment declares, where it
// registers, every flow batch it reads and the reduction it takes of each
// day (Experiment.reads, reads.go). Before the experiment runs, the engine
// takes every key of those reads in one pass (readPlan.takeReads) and hands
// the experiment the partials in declared order, each with its key; the
// experiment folds them in a plain loop.
//
// The bit-identity contract of the suite survives any schedule of the pass
// because of two structural rules:
//
//  1. Every declared key is taken exactly once, into its own slot, so what
//     the experiment receives is the same whichever worker took a key and
//     whenever it did.
//  2. Every partial is exact — uint64 byte sums, integer counts, sets and
//     per-day maps — and the experiment folds them after the pass, in
//     declared order: integer addition is associative at any magnitude
//     (float64 addition is not once a busy week's volume crosses 2^53).
//     Conversions to float64 and normalisations (divisions, minima)
//     happen once, after the fold, on exact operands.
//
// Worker-budget sharing: RunMany sizes one workerBudget from -parallel and
// every engine worker holds a token while it runs an experiment, so spare
// tokens exist exactly when engine workers idle (the tail of a suite run,
// or `lockdown run` with one experiment). The pass borrows spare tokens
// with a non-blocking tryAcquire — it never waits, so the calling
// goroutine always makes progress and the two levels cannot deadlock or
// oversubscribe: total pass+experiment concurrency stays <= -parallel.

// workerBudget is the global concurrency budget shared by the engine's
// experiment workers and the declared-read passes. It is a counting
// semaphore: acquire blocks (engine workers, which must run their
// experiment eventually), tryAcquire does not (pass workers, which are an
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

// dayPart is one day of a declared read as the pass took it: the key and
// the partial of the read's reduction of the key's batch. The partial is
// shared with every other reader of the key and must not be modified.
type dayPart struct {
	key FlowKey
	v   any
}

// day is the UTC day the part covers.
func (p dayPart) day() time.Time { return p.key.Hour.Time() }

// takeReads takes every key of reads from the run's plan, one key per
// chunk, and returns the partials as parts[i][j], the j-th day of
// reads[i], and extra, the workers borrowed from budget beyond the caller,
// who must hold one of its tokens (nil budget: the caller takes every key
// alone). Each take runs in a "scan-chunk" trace span of its own lane.
//
// The pass observes ctx between keys, and the first error wins. A pass
// that fails or is cancelled leaves its untaken partials in the plan,
// which dies with the run.
func (p *readPlan) takeReads(ctx context.Context, reads []dayRead, budget *workerBudget) (parts [][]dayPart, extra int, err error) {
	type item struct{ read, day int }
	var items []item
	parts = make([][]dayPart, len(reads))
	for i, r := range reads {
		keys := r.keys()
		parts[i] = make([]dayPart, len(keys))
		for j, k := range keys {
			parts[i][j].key = k
			items = append(items, item{i, j})
		}
	}
	n := len(items)
	if n == 0 {
		return parts, 0, nil
	}

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
			if i >= n || failed.Load() {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			it := items[i]
			part := &parts[it.read][it.day]
			sp := p.d.tracer.Start("scan-chunk", "scan")
			v, err := p.take(part.key, reads[it.read].by)
			if sp.Active() {
				sp.EndArgs(map[string]any{"key": part.key.String()})
			}
			if err != nil {
				fail(err)
				return
			}
			part.v = v
		}
	}

	// Borrow spare tokens for extra workers; the caller is a worker too,
	// so zero borrowed tokens degrades to the sequential walk.
	if budget != nil {
		for extra < n-1 && budget.tryAcquire() {
			extra++
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer budget.release()
			worker()
		}()
	}
	worker()
	wg.Wait()

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, extra, firstErr
	}
	return parts, extra, nil
}
