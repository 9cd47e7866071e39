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
		e.Data().Close()
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
// it draws, both ways, and the declaration to the reader table below. It
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

// TestSharedDaysDrawnOnce: the five experiments that reduce days, two
// pairs of which share days, run together at -parallel 4 under a 1-byte
// budget, so every batch is evicted when its chunk releases it and which
// reader draws a shared day first is up to the scheduler. The source is
// asked for each declared key exactly once, nothing comes back, the
// results equal the serial unbudgeted run's, and the run ends: no reader
// waits on a fold another holds. CI runs it under -race -cpu 1,4.
func TestSharedDaysDrawnOnce(t *testing.T) {
	ids := []string{"fig7a", "fig7b", "fig9", "fig10", "ablation-vpn"}
	want, err := NewEngine(Options{FlowScale: 0.02}).RunMany(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FlowScale: 0.02, CacheBudget: 1}
	src := newRecordingSource(opts)
	e := NewEngineWithSource(opts, src)
	defer e.Data().Close()
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
	sameResults(t, "parallel 4, budget 1", want, got.rs)

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
	if s := e.Data().Stats(); s.Faults != 0 || s.Evictions != int64(len(decl)) {
		t.Errorf("every batch must be evicted once and none brought back: %+v", s)
	}
}

// TestPartialsEqualDirectReductions: every partial a suite run keeps on a
// cache entry is its reduction of a freshly generated batch of the key, at
// seeds 0 and 7, whichever reader drew the day and whatever the schedule;
// an entry keeps exactly the reductions declared on its key. And each
// experiment's batch-mb in the full run equals its value when it runs
// alone: a reader that takes a partial accounts for the batch it stands
// for, as if it had read it.
func TestPartialsEqualDirectReductions(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		opts := Options{FlowScale: 0.05, Seed: seed}
		e := NewEngine(opts)
		rs, err := e.RunAll(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		d := e.Data()
		fresh := NewSyntheticSource(opts)
		partials := 0
		for k, fe := range d.flows {
			if len(fe.partials) != len(d.readers[k]) {
				t.Errorf("seed %d: %v keeps %d partials, %d reductions are declared on it", seed, k, len(fe.partials), len(d.readers[k]))
			}
			for r, p := range fe.partials {
				b, err := fresh.Batch(k)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := d.reduce(r, k, b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(p, direct) {
					t.Errorf("seed %d: %s's partial of %v differs from its reduction of a fresh batch", seed, r.owner, k)
				}
				partials++
			}
		}
		// fig7a 21 and fig7b 21 days, fig9 58 workdays, fig10 21 days,
		// which ablation-vpn shares.
		if partials != 21+21+58+21 {
			t.Errorf("seed %d: %d partials kept, want 121", seed, partials)
		}
		d.Close()

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

// TestHourRowsAreHours: every hour of every key the suite draws, cut from
// the key's batch by the model's row counts, is that hour's own batch —
// the hour sampled alone, in the key's columns.
func TestHourRowsAreHours(t *testing.T) {
	opts := Options{FlowScale: 0.1}
	_, all := keyCensus(t, opts)
	d := NewDataset(opts)
	defer d.Close()
	hours := 0
	for k := range all {
		b, err := d.batch(k, nil)
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
	defer d.Close()
	day := DayOf(time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC))
	se := FlowKey{Kind: KindFlows, VP: synth.IXPSE, Hour: day}
	b, err := d.batch(se, nil)
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
	whole, err := d.batch(ce, nil)
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
