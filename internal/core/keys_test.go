package core

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// recordingSource counts the times the dataset asks its source for each
// key.
type recordingSource struct {
	FlowSource
	mu   sync.Mutex
	keys map[FlowKey]int
}

func newRecordingSource(opts Options) *recordingSource {
	return &recordingSource{FlowSource: NewSyntheticSource(opts), keys: make(map[FlowKey]int)}
}

func (s *recordingSource) add(k FlowKey) {
	s.mu.Lock()
	s.keys[k]++
	s.mu.Unlock()
}

func (s *recordingSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	s.add(FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)})
	return s.FlowSource.FlowBatch(vp, day)
}

func (s *recordingSource) VPNFlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	s.add(FlowKey{Kind: KindVPNFlows, VP: vp, Hour: DayOf(day)})
	return s.FlowSource.VPNFlowBatch(vp, day)
}

func (s *recordingSource) ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error) {
	s.add(FlowKey{Kind: KindComponentFlows, VP: vp, Name: name, Hour: DayOf(day)})
	return s.FlowSource.ComponentFlowBatch(vp, name, day)
}

// keyCensus runs every experiment on an engine of its own and returns the
// keys each one draws, and the union over the suite.
func keyCensus(t *testing.T, opts Options) (map[string][]FlowKey, map[FlowKey]bool) {
	t.Helper()
	perExp := make(map[string][]FlowKey)
	all := make(map[FlowKey]bool)
	for _, id := range IDs() {
		src := newRecordingSource(opts)
		e := NewEngineWithSource(opts, src)
		if _, err := e.RunMany(context.Background(), []string{id}, 1); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for k := range src.keys {
			perExp[id] = append(perExp[id], k)
			all[k] = true
		}
	}
	return perExp, all
}

// census counts keys by kind and vantage point ("flows/ISP-CE").
func census(keys []FlowKey) map[string]int {
	out := make(map[string]int)
	for _, k := range keys {
		out[fmt.Sprintf("%s/%s", k.Kind, k.VP)]++
	}
	return out
}

// declaredKeys returns the keys an experiment declares it reads
// (Experiment.reads).
func declaredKeys(e Experiment) map[FlowKey]bool {
	out := make(map[FlowKey]bool)
	for _, r := range e.reads {
		for _, k := range r.keys() {
			out[k] = true
		}
	}
	return out
}

// TestKeyCensus draws the suite experiment by experiment through a
// recording source and holds each experiment's declared reads to the keys
// it draws, both ways, and the declaration to the reader table below;
// every read names the reduction the experiment takes of each day. It
// is what FlowKey.Hours rests on: Figure 9 is the only reader of the
// flows/ keys of the IXP-SE and IXP-US, so those keys may hold its working
// hours alone, and every other key is read by the day. A new reader of a
// kind shows here first. The union is the suite's suiteKeys, one UTC day
// each: 103 flows/ days (EDU 31, Figure 12's sampled days; ISP-CE 21 and
// IXP-CE 21, the three weeks of Figures 7a/7b; IXP-SE 15 and IXP-US 15,
// Figure 9's workdays), 21 vpn-flows/ days of the IXP-CE (Figure 10's
// three weeks) and 77 component-flows/ days of the IXP-SE gaming component
// (Figure 8's weeks 7-17).
func TestKeyCensus(t *testing.T) {
	want := map[string]map[string]int{
		"fig7a":        {"flows/ISP-CE": 21},
		"fig7b":        {"flows/IXP-CE": 21},
		"fig8":         {"component-flows/IXP-SE": 77},
		"fig9":         {"flows/ISP-CE": 13, "flows/IXP-CE": 15, "flows/IXP-SE": 15, "flows/IXP-US": 15},
		"fig10":        {"vpn-flows/IXP-CE": 21},
		"fig12":        {"flows/EDU": 31},
		"ablation-vpn": {"vpn-flows/IXP-CE": 7},
	}
	perExp, all := keyCensus(t, Options{FlowScale: 0.02})
	for _, id := range IDs() {
		if got := census(perExp[id]); fmt.Sprint(got) != fmt.Sprint(want[id]) {
			t.Errorf("%s draws %v, want %v", id, got, want[id])
		}
		e, _ := ByID(id)
		for _, r := range e.reads {
			if r.by == nil {
				t.Errorf("%s reads %s/%s without a reduction", id, r.kind, r.vp)
			}
		}
		decl := declaredKeys(e)
		for _, k := range perExp[id] {
			if !decl[k] {
				t.Errorf("%s draws %v, which it does not declare", id, k)
			}
		}
		if len(decl) != len(perExp[id]) {
			t.Errorf("%s declares %d keys and draws %d", id, len(decl), len(perExp[id]))
		}
	}
	for k := range all {
		if k.Hour != DayOf(k.Hour.Time()) {
			t.Errorf("%v is not a UTC day", k)
		}
		if lo, hi := k.Hours(); (lo != 0 || hi != 24) && !(k.Kind == KindFlows && (k.VP == synth.IXPSE || k.VP == synth.IXPUS)) {
			t.Errorf("%v holds hours [%d, %d), only Figure 9's keys hold less than the day", k, lo, hi)
		}
	}
	if len(all) != suiteKeys() || suiteKeys() != 103+21+77 {
		t.Errorf("the suite draws %d keys and declares %d, want %d", len(all), suiteKeys(), 103+21+77)
	}
}

// TestSharedDaysDrawnOnce: the five experiments whose reads share days, in
// two groups, run together at -parallel 4, so which reader draws a shared
// day first is up to the scheduler. The source is asked for each declared
// key exactly once, the run holds nothing afterwards, the results equal
// the serial run's, and the run ends: no reader waits on a fold another
// holds. CI runs it under -race -cpu 1,4.
func TestSharedDaysDrawnOnce(t *testing.T) {
	ids := []string{"fig7a", "fig7b", "fig9", "fig10", "ablation-vpn"}
	want, err := NewEngine(Options{FlowScale: 0.02}).RunMany(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FlowScale: 0.02}
	src := newRecordingSource(opts)
	e := NewEngineWithSource(opts, src)
	type outcome struct {
		rs  []*Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := e.RunMany(context.Background(), ids, 4)
		done <- outcome{rs, err}
	}()
	var got outcome
	select {
	case got = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the five readers did not finish in two minutes")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	requireSameResults(t, "parallel 4", want, got.rs)

	decl := make(map[FlowKey]bool)
	for _, id := range ids {
		e, _ := ByID(id)
		maps.Copy(decl, declaredKeys(e))
	}
	for k, n := range src.keys {
		if n != 1 || !decl[k] {
			t.Errorf("%v reached the source %d times (declared: %v), want once", k, n, decl[k])
		}
	}
	if len(src.keys) != len(decl) {
		t.Errorf("the source saw %d keys, the readers declare %d", len(src.keys), len(decl))
	}
	holdsNothing(t, "parallel 4", e.Data())
}

// TestPartialsEqualDirectReductions: every partial a suite run's readers
// take is its reduction of a freshly generated batch of the key, at seeds
// 0 and 7, whichever reader drew the day and whatever the schedule; each
// declared reader takes its partial once, so the partials are captured as
// they are taken. And each experiment's batch-mb in the full run equals
// its value when it runs alone: a reader that takes a partial accounts for
// the batch it stands for, as if it had read it.
func TestPartialsEqualDirectReductions(t *testing.T) {
	type take struct {
		k FlowKey
		r *reduction
	}
	declared := make(map[take]int)
	for _, e := range All() {
		for _, r := range e.reads {
			for _, k := range r.keys() {
				declared[take{k, r.by}]++
			}
		}
	}
	for _, seed := range []int64{0, 7} {
		opts := Options{FlowScale: 0.05, Seed: seed}
		e := NewEngine(opts)
		d := e.Data()
		var mu sync.Mutex
		taken := make(map[take][]any)
		d.taken = func(k FlowKey, r *reduction, p any) {
			mu.Lock()
			taken[take{k, r}] = append(taken[take{k, r}], p)
			mu.Unlock()
		}
		rs, err := e.RunAll(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		holdsNothing(t, fmt.Sprintf("seed %d", seed), d)
		fresh := NewSyntheticSource(opts)
		for tk, ps := range taken {
			b, err := fresh.Batch(tk.k)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := d.reduce(tk.r, tk.k, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ps {
				if !reflect.DeepEqual(p, direct) {
					t.Errorf("seed %d: %s's partial of %v differs from its reduction of a fresh batch", seed, tk.r.owner, tk.k)
				}
			}
			if len(ps) != declared[tk] {
				t.Errorf("seed %d: %s's partial of %v was taken %d times, by %d declared readers", seed, tk.r.owner, tk.k, len(ps), declared[tk])
			}
		}
		// fig7a 21 and fig7b 21 days, fig9 58 workdays, fig10 21 days,
		// which ablation-vpn shares; fig8 77 days and fig12 31.
		if len(taken) != len(declared) || len(taken) != 121+77+31 {
			t.Errorf("seed %d: %d partials taken, want 229", seed, len(taken))
		}

		for _, r := range rs {
			alone, err := NewEngine(opts).Run(context.Background(), r.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := r.Metrics[MetricBatchMB], alone.Metrics[MetricBatchMB]; got != want {
				t.Errorf("seed %d: %s reads %v batch MB in the suite and %v alone", seed, r.ID, got, want)
			}
		}
	}
}

// TestPartialTakenAgain: a reduction taken again after its last declared
// reader dropped it, or taken without a declaration, is reduced from the
// batch drawn again, and the result equals the first take. Every take
// draws the batch once and drops it, and the entry is left spent, holding
// no partial.
func TestPartialTakenAgain(t *testing.T) {
	opts := Options{FlowScale: 0.05}
	src := newRecordingSource(opts)
	d := NewDatasetWithSource(opts, src)
	fig8, _ := ByID("fig8")
	d.declare([]Experiment{fig8})
	k := FlowKey{Kind: KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: DayOf(fig8Days()[0])}
	first, err := d.partial(k, gamingIPs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fe := d.flows[k]; src.keys[k] != 1 || len(fe.partials) != 0 || !fe.spent {
		t.Fatalf("the only declared take must draw once and leave no partial: %d draws, %d partials, spent %v", src.keys[k], len(fe.partials), fe.spent)
	}
	again, err := d.partial(k, gamingIPs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == first || !reflect.DeepEqual(again, first) {
		t.Errorf("taken again, %v's partial must be reduced anew and equal the first take", k)
	}
	// An undeclared reduction of the same key, taken twice.
	undeclared := &reduction{owner: "test", build: gamingIPs.build}
	for i := 0; i < 2; i++ {
		p, err := d.partial(k, undeclared, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, first) {
			t.Errorf("take %d of an undeclared reduction differs from the declared one", i)
		}
	}
	if src.keys[k] != 4 || len(src.keys) != 1 {
		t.Errorf("each of the 4 takes must draw the batch once: %v", src.keys)
	}
	if fe := d.flows[k]; len(fe.partials) != 0 || !fe.spent {
		t.Errorf("%v keeps %d partials after its last take (spent %v)", k, len(fe.partials), fe.spent)
	}
	if rs := d.readers[k]; len(rs) != 0 {
		t.Errorf("%v still has declared takes left: %v", k, rs)
	}
}

// TestHourRowsAreHours: every hour of every key the suite draws, cut from
// the key's batch by the model's row counts, is that hour's own batch —
// the hour sampled alone, in the key's columns.
func TestHourRowsAreHours(t *testing.T) {
	opts := Options{FlowScale: 0.1}
	_, all := keyCensus(t, opts)
	d := NewDataset(opts)
	hours := 0
	for k := range all {
		b, err := d.draw(k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.model.generator(k)
		if err != nil {
			t.Fatal(err)
		}
		from, to := k.Hours()
		for h := from; h < to; h++ {
			lo, hi, err := d.hourRows(k, b, h, h+1)
			if err != nil {
				t.Fatal(err)
			}
			want := g.HourBatch(k.Hour.Time().Add(time.Duration(h)*time.Hour), k.Name, k.Columns())
			if got := b.Slice(lo, hi); !got.Equal(want) {
				t.Errorf("%v hour %d: rows [%d, %d) differ from the hour's batch of %d rows", k, h, lo, hi, want.Len())
			}
			want.Release()
			hours++
		}
	}
	if hours == 0 {
		t.Fatal("no hour was compared")
	}
}

// TestHourRowsGuards: an hour outside the key's window is refused, and so
// is a batch whose length disagrees with the model's row counts.
func TestHourRowsGuards(t *testing.T) {
	d := NewDataset(Options{FlowScale: 0.1})
	day := DayOf(time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC))
	se := FlowKey{Kind: KindFlows, VP: synth.IXPSE, Hour: day}
	b, err := d.draw(se)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, err := d.hourRows(se, b, 9, 17); err != nil || lo != 0 || hi != b.Len() {
		t.Errorf("the working hours of %v are rows [%d, %d) (%v), want the whole batch of %d", se, lo, hi, err, b.Len())
	}
	for _, r := range [][2]int{{8, 9}, {16, 18}, {0, 24}, {12, 11}} {
		if _, _, err := d.hourRows(se, b, r[0], r[1]); err == nil || !strings.Contains(err.Error(), "outside its window") {
			t.Errorf("hours %v of %v: %v, want a refusal", r, se, err)
		}
	}
	ce := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: day}
	whole, err := d.draw(ce)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.hourRows(ce, whole, 0, 24); err != nil {
		t.Errorf("the whole day of %v: %v", ce, err)
	}
	short := whole.Slice(0, whole.Len()-1)
	if _, _, err := d.hourRows(ce, short, 9, 17); err == nil || !strings.Contains(err.Error(), "its model's hours") {
		t.Errorf("a batch one row short: %v, want an error", err)
	}
}
