package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	qcheck "testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// flowHeavy are the experiments that walk day grids over sampled flows —
// the ones the sharded-scan layer actually parallelizes, and therefore the
// ones the determinism tests exercise hardest.
var flowHeavy = []string{"fig7a", "fig7b", "fig8", "fig9", "fig10", "fig12", "ablation-vpn"}

// requireSameResults asserts two result slices are bit-identical modulo
// runtime metrics, failing with the first divergent metric key so a broken
// merge is immediately attributable.
func requireSameResults(t *testing.T, label string, want, got []*Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID {
			t.Fatalf("%s: result %d: order differs (%q vs %q)", label, i, w.ID, g.ID)
		}
		wm, gm := stripRuntime(w.Metrics), stripRuntime(g.Metrics)
		keys := make([]string, 0, len(wm))
		for k := range wm {
			keys = append(keys, k)
		}
		for k := range gm {
			if _, ok := wm[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			wv, wok := wm[k]
			gv, gok := gm[k]
			if !wok || !gok {
				t.Fatalf("%s: %s: metric %q present in only one run (baseline %v, got %v)", label, w.ID, k, wok, gok)
			}
			if math.Float64bits(wv) != math.Float64bits(gv) {
				t.Fatalf("%s: %s: first divergent metric %q: %v vs %v (bits %x vs %x)",
					label, w.ID, k, wv, gv, math.Float64bits(wv), math.Float64bits(gv))
			}
		}
		if !reflect.DeepEqual(w.Tables, g.Tables) {
			t.Fatalf("%s: %s: tables differ", label, w.ID)
		}
		if !reflect.DeepEqual(w.Notes, g.Notes) {
			t.Fatalf("%s: %s: notes differ", label, w.ID)
		}
	}
}

// TestShardedScanOrderAndCoverage is the pure property at the bottom of
// the determinism stack: for any grid length and worker budget,
// ShardedScan visits every item exactly once and merges the partials in
// ascending grid order. The scan emits its item and the merge appends, so
// the output must be exactly 0..n-1 in order.
func TestShardedScanOrderAndCoverage(t *testing.T) {
	data := NewDataset(Options{FlowScale: 0.01})
	prop := func(n8, budget8 uint8) bool {
		n := int(n8) % 200
		budget := int(budget8)%8 + 1
		env := &Env{
			Data:   data,
			budget: newWorkerBudget(budget),
			scan:   &scanStats{},
		}
		env.budget.acquire() // the caller holds a token, like the engine
		got, err := ShardedScan(env, n,
			func(env *Env, i int) ([]int, error) { return []int{i}, nil },
			func(dst, src []int) []int { return append(dst, src...) })
		if err != nil {
			t.Logf("n=%d budget=%d: %v", n, budget, err)
			return false
		}
		if len(got) != n {
			t.Logf("n=%d budget=%d: %d items visited", n, budget, len(got))
			return false
		}
		for i, v := range got {
			if v != i {
				t.Logf("n=%d budget=%d: item %d holds %d (out of order or duplicated)", n, budget, i, v)
				return false
			}
		}
		if c := env.scan.chunks.Load(); c != int64(n) {
			t.Logf("n=%d budget=%d: %d chunks counted, want one per item", n, budget, c)
			return false
		}
		return true
	}
	if err := qcheck.Check(prop, &qcheck.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestShardedScanErrorPropagation: a chunk error fails the whole scan and
// surfaces the scan's error, not a partial aggregate.
func TestShardedScanErrorPropagation(t *testing.T) {
	data := NewDataset(Options{FlowScale: 0.01})
	env := &Env{Data: data, budget: newWorkerBudget(4), scan: &scanStats{}}
	env.budget.acquire()
	boom := errors.New("boom")
	_, err := ShardedScan(env, 100,
		func(env *Env, i int) (int, error) {
			if i >= 50 {
				return 0, fmt.Errorf("item %d: %w", i, boom)
			}
			return 1, nil
		},
		func(dst, src int) int { return dst + src })
	if !errors.Is(err, boom) {
		t.Fatalf("ShardedScan error = %v, want wrapped boom", err)
	}
}

// TestWorkerBudget pins the semaphore semantics the two scheduling levels
// share: acquire blocks, tryAcquire never does, release refills.
func TestWorkerBudget(t *testing.T) {
	b := newWorkerBudget(2)
	if !b.tryAcquire() || !b.tryAcquire() {
		t.Fatal("two tokens should be available")
	}
	if b.tryAcquire() {
		t.Fatal("third tryAcquire should fail on an empty budget")
	}
	b.release()
	if !b.tryAcquire() {
		t.Fatal("released token should be reacquirable")
	}
	if newWorkerBudget(0).tokens == nil || cap(newWorkerBudget(-3).tokens) != 1 {
		t.Fatal("budgets below 1 must clamp to 1 token")
	}
}

// TestRunAllShardingInvariance is the suite-level determinism property:
// RunAll output is invariant under the worker count. Each count schedules
// every experiment's scan chunks differently, and any divergence fails
// with the first differing metric key.
func TestRunAllShardingInvariance(t *testing.T) {
	opts := Options{FlowScale: 0.05, Seed: 3}
	base, err := NewEngine(opts).RunAll(context.Background(), 1)
	if err != nil {
		t.Fatalf("baseline RunAll: %v", err)
	}
	ncpu := runtime.NumCPU()
	for _, c := range []struct {
		name     string
		parallel int
	}{
		{"parallel=1", 1},
		{"parallel=2", 2},
		{"parallel=ncpu", ncpu},
		{"parallel=2ncpu", 2 * ncpu},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := NewEngine(opts).RunAll(context.Background(), c.parallel)
			if err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			requireSameResults(t, fmt.Sprintf("parallel=%d", c.parallel), base, got)
		})
	}
}

// cancelAfterSource wraps a FlowSource and cancels the run's context after
// a fixed number of flow-batch fetches, so cancellation lands mid-scan
// inside whichever experiment is walking its grid at that moment.
type cancelAfterSource struct {
	FlowSource
	after  int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (s *cancelAfterSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.FlowSource.FlowBatch(vp, hour)
}

// TestShardedScanCancellation cancels the context mid-sharded-scan and
// asserts the two leak-freedom properties: RunMany fails cleanly with the
// context error, and every scan goroutine exits.
func TestShardedScanCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{FlowScale: 0.05}
	src := &cancelAfterSource{FlowSource: NewSyntheticSource(opts), after: 40, cancel: cancel}
	eng := NewEngineWithSource(opts, src)
	_, err := eng.RunMany(ctx, flowHeavy, 4)
	if err == nil {
		t.Fatal("RunMany cancelled mid-scan should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMany error = %v, want context.Canceled", err)
	}
	if src.calls.Load() < src.after {
		t.Fatalf("source saw %d fetches, cancellation never fired", src.calls.Load())
	}
	// Scan workers are joined before ShardedScan returns, so the
	// goroutine count must settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScanMetricsStamped: a flow-heavy experiment run through the engine
// reports its sharding activity in the _runtime/scan-* metrics.
func TestScanMetricsStamped(t *testing.T) {
	res, err := NewEngine(Options{FlowScale: 0.02}).Run(context.Background(), "fig9")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{MetricScanChunks, MetricScanWorkers} {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("result lacks %s", k)
		}
		if !IsRuntimeMetric(k) {
			t.Errorf("%s should classify as a runtime metric", k)
		}
	}
	if res.Metrics[MetricScanChunks] < 1 {
		t.Errorf("fig9 should scan at least one chunk, got %v", res.Metrics[MetricScanChunks])
	}
	if v, ok := res.Metrics[MetricScanPrefetch]; ok {
		t.Errorf("the retired %s is stamped (%v)", MetricScanPrefetch, v)
	}
}

// TestSingleRunBorrowsSpareWorker: Engine.Run has no RunMany pool to share
// with, so its scans are the only takers of the GOMAXPROCS budget. On two
// processors the caller holds one token and every multi-chunk scan must
// borrow the other — fig12 has one such scan, fig9 twelve (3 weeks at each
// of 4 vantage points), and the scans of one experiment run one after the
// other, so the count is exact. The result equals the serial one.
func TestSingleRunBorrowsSpareWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for id, scans := range map[string]float64{"fig12": 1, "fig9": 12} {
		opts := Options{FlowScale: 0.02}
		serial := NewEngine(opts)
		want, err := serial.RunMany(context.Background(), []string{id}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := want[0].Metrics[MetricScanWorkers]; got != 0 {
			t.Errorf("%s on a 1-token pool borrowed %v workers", id, got)
		}
		eng := NewEngine(opts)
		res, err := eng.Run(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics[MetricScanWorkers]; got != scans {
			t.Errorf("%s: %s = %v, want one spare worker for each of its %v scans", id, MetricScanWorkers, got, scans)
		}
		requireSameResults(t, id+" Run vs RunMany(1)", want, []*Result{res})
	}
}
