package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	qcheck "testing/quick"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// flowHeavy are the experiments that declare flow reads — the ones whose
// declared-read passes the budget parallelizes, and therefore the ones the
// determinism tests exercise hardest.
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

// TestReadPassTakesEachKeyOnce is the property at the bottom of the
// determinism stack: for any reads and at every worker budget from 1 to
// 8, the declared-read pass takes every declared key exactly once and
// hands back each partial in its declared slot; with no token to borrow
// it takes them in declared order. It gives back every token it borrowed
// and leaves its plan holding nothing.
func TestReadPassTakesEachKeyOnce(t *testing.T) {
	d := NewDataset(Options{FlowScale: 0.01})
	var (
		mu    sync.Mutex
		order []FlowKey
	)
	d.taken = func(k FlowKey, _ *reduction, _ any) {
		mu.Lock()
		order = append(order, k)
		mu.Unlock()
	}
	edu, gaming := fig12Days(), fig8Days()
	pass := func(n1, n2 uint8, budget int) bool {
		reads := []dayRead{
			{kind: KindFlows, vp: synth.EDU, days: edu[:int(n1)%(len(edu)+1)], by: batchRows},
			{kind: KindComponentFlows, vp: synth.IXPSE, name: "gaming", days: gaming[:int(n2)%25], by: batchRows},
		}
		label := fmt.Sprintf("%d+%d keys, budget %d", len(reads[0].days), len(reads[1].days), budget)
		var declared []FlowKey
		for _, r := range reads {
			declared = append(declared, r.keys()...)
		}
		order = nil
		plan, err := newReadPlan(d, []Experiment{{reads: reads}})
		if err != nil {
			t.Logf("%s: %v", label, err)
			return false
		}
		b := newWorkerBudget(budget)
		b.acquire() // the caller holds a token, like the engine
		parts, extra, err := plan.takeReads(context.Background(), reads, b)
		if err != nil {
			t.Logf("%s: %v", label, err)
			return false
		}
		for i, r := range reads {
			for j, k := range r.keys() {
				if p := parts[i][j]; p.key != k || p.v == nil {
					t.Logf("%s: slot %d/%d holds %v (%v), want %v", label, i, j, p.key, p.v, k)
					return false
				}
			}
		}
		if extra > budget-1 || extra > max(len(declared)-1, 0) || len(b.tokens) != budget-1 {
			t.Logf("%s: %d workers borrowed, %d tokens free after the pass", label, extra, len(b.tokens))
			return false
		}
		seen := make(map[FlowKey]int)
		for _, k := range order {
			seen[k]++
		}
		if len(order) != len(declared) || len(seen) != len(declared) {
			t.Logf("%s: %d takes of %d distinct keys, want each of %d once", label, len(order), len(seen), len(declared))
			return false
		}
		if extra == 0 && !slices.Equal(order, declared) {
			t.Logf("%s: taken alone out of declared order: %v", label, order)
			return false
		}
		planHoldsNothing(t, label, plan)
		return true
	}
	prop := func(n1, n2 uint8) bool {
		for budget := 1; budget <= 8; budget++ {
			if !pass(n1, n2, budget) {
				return false
			}
		}
		return true
	}
	if err := qcheck.Check(prop, &qcheck.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// planHoldsNothing fails unless every read of every slot of p has no take
// left and holds no partial.
func planHoldsNothing(t *testing.T, label string, p *readPlan) {
	t.Helper()
	for k, s := range p.slots {
		for _, x := range s.reads {
			if x.left != 0 || x.p != nil {
				t.Errorf("%s: %s's read of %v has %d takes left, holds a partial: %v", label, x.r.owner, k, x.left, x.p != nil)
			}
		}
	}
}

// TestPlanDropsPartialAtLastTake: the plan of the whole suite, taken
// (key, reduction) by (key, reduction) in declared order, draws each key
// once, and a slot holds a partial from its key's draw to the key's last
// take, and none after it. A take the plan no longer holds fails.
func TestPlanDropsPartialAtLastTake(t *testing.T) {
	opts := Options{FlowScale: 0.02}
	src := newRecordingSource(opts)
	plan, err := newReadPlan(NewDatasetWithSource(opts, src), All())
	if err != nil {
		t.Fatal(err)
	}
	type take struct {
		k FlowKey
		r *reduction
	}
	var takes []take
	last := make(map[FlowKey]int) // the index of each key's last take
	for _, e := range All() {
		for _, r := range e.reads {
			for _, k := range r.keys() {
				last[k] = len(takes)
				takes = append(takes, take{k, r.by})
			}
		}
	}
	for i, tk := range takes {
		if v, err := plan.take(tk.k, tk.r); err != nil || v == nil {
			t.Fatalf("%s's take of %v: %v, %v", tk.r.owner, tk.k, v, err)
		}
		held := 0
		for _, x := range plan.slots[tk.k].reads {
			if x.p != nil {
				held++
			}
		}
		if (i == last[tk.k]) != (held == 0) {
			t.Errorf("%v holds %d partials after take %d, its last being %d", tk.k, held, i, last[tk.k])
		}
	}
	drawsEachKeyOnce(t, "declared order", src.keys, 1)
	planHoldsNothing(t, "declared order", plan)
	if _, err := plan.take(takes[0].k, takes[0].r); err == nil {
		t.Errorf("a take past the plan's of %v did not fail", takes[0].k)
	}
}

// failingSource fails the flows/ draws of the keys in fail.
type failingSource struct {
	FlowSource
	mu    sync.Mutex
	fail  map[FlowKey]error
	calls int
}

func (s *failingSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	s.mu.Lock()
	s.calls++
	err := s.fail[FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)}]
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.FlowSource.FlowBatch(vp, day)
}

// TestReadPassFirstErrorWins: a key whose draw fails fails the pass with
// its error and no partials, at every budget. Taken alone, the first
// failing key in declared order wins and no key after it is drawn. A
// later pass, on a plan of its own, draws the key again and succeeds.
func TestReadPassFirstErrorWins(t *testing.T) {
	opts := Options{FlowScale: 0.01}
	boom := errors.New("boom")
	read := dayRead{kind: KindFlows, vp: synth.EDU, days: fig12Days(), by: eduCounts}
	keys := read.keys()
	for budget := 1; budget <= 8; budget++ {
		src := &failingSource{FlowSource: NewSyntheticSource(opts), fail: map[FlowKey]error{
			keys[5]:  fmt.Errorf("key 5: %w", boom),
			keys[12]: fmt.Errorf("key 12: %w", boom),
		}}
		d := NewDatasetWithSource(opts, src)
		label := fmt.Sprintf("budget %d", budget)
		pass := func() ([][]dayPart, error) {
			b := newWorkerBudget(budget)
			b.acquire()
			plan, err := newReadPlan(d, []Experiment{{reads: []dayRead{read}}})
			if err != nil {
				return nil, err
			}
			parts, _, err := plan.takeReads(context.Background(), []dayRead{read}, b)
			return parts, err
		}
		parts, err := pass()
		if !errors.Is(err, boom) || parts != nil {
			t.Fatalf("%s: pass = %d reads, %v; want the failing key's error", label, len(parts), err)
		}
		if budget == 1 && (!strings.HasPrefix(err.Error(), "key 5:") || src.calls != 6) {
			t.Errorf("%s: %v after %d draws; want key 5's error after its 6 draws", label, err, src.calls)
		}

		src.mu.Lock()
		src.fail = nil
		src.mu.Unlock()
		if parts, err = pass(); err != nil || len(parts[0]) != len(keys) {
			t.Fatalf("%s: the pass after the failure: %v", label, err)
		}
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
// every experiment's pass differently, and any divergence fails
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
// a fixed number of flow-batch fetches, so cancellation lands mid-pass
// inside whichever experiment is taking its reads at that moment.
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

// TestReadPassCancellation cancels the context while the flow-heavy
// experiments' passes run: RunMany fails cleanly with the context error,
// the passes stop mid-way (the source sees far fewer draws than the keys
// the experiments declare), and every pass goroutine exits.
func TestReadPassCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{FlowScale: 0.05}
	src := &cancelAfterSource{FlowSource: NewSyntheticSource(opts), after: 40, cancel: cancel}
	eng := NewEngineWithSource(opts, src)
	_, err := eng.RunMany(ctx, flowHeavy, 4)
	if err == nil {
		t.Fatal("RunMany cancelled mid-pass should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMany error = %v, want context.Canceled", err)
	}
	if n := src.calls.Load(); n < src.after || n > src.after+8 {
		t.Fatalf("source saw %d draws; want the pass to stop within a draw per worker of the cancel at %d", n, src.after)
	}
	// Pass workers are joined before takeReads returns, so the goroutine
	// count must settle back to the baseline.
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
// reports its pass activity in the _runtime/scan-* metrics: fig9 takes
// its 58 declared keys, the workdays of its three weeks at four vantage
// points (13 at the ISP-CE, whose April week holds the Easter break, and
// 15 at each IXP), one chunk each.
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
	if got := res.Metrics[MetricScanChunks]; got != 58 {
		t.Errorf("fig9 took %v chunks, want one per declared key, 58", got)
	}
	if v, ok := res.Metrics[MetricScanPrefetch]; ok {
		t.Errorf("the retired %s is stamped (%v)", MetricScanPrefetch, v)
	}
}

// TestSingleRunBorrowsSpareWorker: Engine.Run is RunMany of one ID at the
// default budget, GOMAXPROCS, so its pass is the only taker of the spare
// tokens. On two processors the caller holds one token and the pass must
// borrow the other: fig12 and fig9 each take their keys in one pass, so
// each borrows exactly one worker. The result equals the serial one.
func TestSingleRunBorrowsSpareWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, id := range []string{"fig12", "fig9"} {
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
		if got := res.Metrics[MetricScanWorkers]; got != 1 {
			t.Errorf("%s: %s = %v, want the one spare worker", id, MetricScanWorkers, got)
		}
		requireSameResults(t, id+" Run vs RunMany(1)", want, []*Result{res})
	}
}
