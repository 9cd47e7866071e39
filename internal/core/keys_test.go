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
// key, and the column sets of the batches it served, by kind.
type recordingSource struct {
	FlowSource
	mu   sync.Mutex
	keys map[FlowKey]int
	cols map[string]map[flowrec.Columns]int
}

func newRecordingSource(opts Options) *recordingSource {
	return recording(NewSyntheticSource(opts))
}

// recording wraps src in a recordingSource.
func recording(src FlowSource) *recordingSource {
	s := &recordingSource{FlowSource: src}
	s.reset()
	return s
}

// reset forgets what the source recorded.
func (s *recordingSource) reset() {
	s.mu.Lock()
	s.keys, s.cols = make(map[FlowKey]int), make(map[string]map[flowrec.Columns]int)
	s.mu.Unlock()
}

func (s *recordingSource) add(k FlowKey, b *flowrec.Batch, err error) (*flowrec.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[k]++
	if err == nil {
		kind := k.Kind.String()
		if s.cols[kind] == nil {
			s.cols[kind] = make(map[flowrec.Columns]int)
		}
		s.cols[kind][b.Columns()]++
	}
	return b, err
}

func (s *recordingSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	b, err := s.FlowSource.FlowBatch(vp, day)
	return s.add(FlowKey{Kind: KindFlows, VP: vp, Hour: DayOf(day)}, b, err)
}

func (s *recordingSource) VPNFlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	b, err := s.FlowSource.VPNFlowBatch(vp, day)
	return s.add(FlowKey{Kind: KindVPNFlows, VP: vp, Hour: DayOf(day)}, b, err)
}

func (s *recordingSource) ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error) {
	b, err := s.FlowSource.ComponentFlowBatch(vp, name, day)
	return s.add(FlowKey{Kind: KindComponentFlows, VP: vp, Name: name, Hour: DayOf(day)}, b, err)
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
// day first is up to the scheduler. Each declared key is drawn exactly
// once — streamed from the dataset's own model (the path `lockdown all`
// runs; its fills are counted) and asked of a foreign source — the results
// equal the serial run's, and the run ends: no reader waits on a fold
// another holds. CI runs it under -race -cpu 1,4.
func TestSharedDaysDrawnOnce(t *testing.T) {
	ids := []string{"fig7a", "fig7b", "fig9", "fig10", "ablation-vpn"}
	opts := Options{FlowScale: 0.02}
	want, err := NewEngine(opts).RunMany(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	decl := make(map[FlowKey]bool)
	for _, id := range ids {
		e, _ := ByID(id)
		maps.Copy(decl, declaredKeys(e))
	}
	src := newRecordingSource(opts)
	own := NewEngine(opts)
	fills := countFills(own.Data())
	for _, path := range []struct {
		name  string
		e     *Engine
		draws map[FlowKey]int
	}{{"streamed", own, fills}, {"foreign", NewEngineWithSource(opts, src), src.keys}} {
		type outcome struct {
			rs  []*Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			rs, err := path.e.RunMany(context.Background(), ids, 4)
			done <- outcome{rs, err}
		}()
		var got outcome
		select {
		case got = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: the five readers did not finish in two minutes", path.name)
		}
		if got.err != nil {
			t.Fatal(got.err)
		}
		requireSameResults(t, path.name+", parallel 4", want, got.rs)
		for k, n := range path.draws {
			if n != 1 || !decl[k] {
				t.Errorf("%s: %v drawn %d times (declared: %v), want once", path.name, k, n, decl[k])
			}
		}
		if len(path.draws) != len(decl) {
			t.Errorf("%s: %d keys drawn, the readers declare %d", path.name, len(path.draws), len(decl))
		}
	}
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
		fresh := NewSyntheticSource(opts)
		for tk, ps := range taken {
			b, err := fresh.Batch(tk.k)
			if err != nil {
				t.Fatal(err)
			}
			f, err := tk.r.build(d)
			if err != nil {
				t.Fatal(err)
			}
			fl := f(tk.k)
			if err := d.split(tk.k, b, fl.add); err != nil {
				t.Fatal(err)
			}
			direct := fl.done()
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

// TestFoldAtAnyPieceSize: a fold is exact at any cut of a key's rows into
// pieces. For every key the suite plans, at seeds 0 and 7, each of the
// key's planned reductions gives the partial its fill streams (one piece
// an hour) when the day's batch is split into its hours, as a foreign
// source's is, and when those hours are cut further into pieces of 1, 7
// and 256 rows (the sampler's draw chunk).
func TestFoldAtAnyPieceSize(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		d := NewDataset(Options{FlowScale: 0.02, Seed: seed})
		plan, err := newReadPlan(d, All())
		if err != nil {
			t.Fatal(err)
		}
		folds := 0
		for k, s := range plan.slots {
			if err := plan.fill(k, s, nil); err != nil {
				t.Fatal(err)
			}
			b, err := d.draw(k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range s.reads {
				r := s.reads[i].r
				f, err := r.build(d)
				if err != nil {
					t.Fatal(err)
				}
				for _, size := range []int{1, 7, 256, 0} { // 0: whole hours
					fl := f(k)
					if err := d.split(k, b, cutPieces(size, fl.add)); err != nil {
						t.Fatal(err)
					}
					if got := fl.done(); !reflect.DeepEqual(got, s.reads[i].p) {
						t.Errorf("seed %d: %s's partial of %v at pieces of %d rows differs from its streamed fold", seed, r.owner, k, size)
					}
					folds++
				}
			}
		}
		// 201 keys, of which the 28 workdays Figures 7a and 7b share with
		// Figure 9 have two reductions; four piece sizes each.
		if want := (201 + 28) * 4; folds != want {
			t.Errorf("seed %d: %d folds compared, want %d", seed, folds, want)
		}
	}
}

// cutPieces hands add each piece it is handed in pieces of size rows, the
// last of them shorter; size 0 hands it on whole.
func cutPieces(size int, add func(hour int, piece *flowrec.Batch)) func(int, *flowrec.Batch) {
	if size == 0 {
		return add
	}
	return func(hour int, b *flowrec.Batch) {
		for lo := 0; lo < b.Len(); lo += size {
			add(hour, b.Slice(lo, min(lo+size, b.Len())))
		}
	}
}

// TestPiecesAreHours: on both paths a key's rows reach the reductions —
// streamed from the dataset's model, and split from a foreign source's day
// batch — every piece lies in one hour, and the pieces of an hour, in
// order, are that hour's own batch: the hour sampled alone, in the key's
// columns. Every key the suite draws, every hour of its window.
func TestPiecesAreHours(t *testing.T) {
	opts := Options{FlowScale: 0.1}
	_, all := keyCensus(t, opts)
	for name, d := range map[string]*Dataset{
		"stream": NewDataset(opts),
		"split":  NewDatasetWithSource(opts, NewSyntheticSource(opts)),
	} {
		hours := 0
		for k := range all {
			g, err := d.model.generator(k)
			if err != nil {
				t.Fatal(err)
			}
			from, to := k.Hours()
			got := make([]*flowrec.Batch, 24)
			last := -1
			rows, _, err := d.stream(k, func(h int, piece *flowrec.Batch) {
				if h < last {
					t.Errorf("%s: %v: a piece of hour %d after one of hour %d", name, k, h, last)
				}
				last = h
				if got[h] == nil {
					got[h] = flowrec.NewProjected(0, k.Columns())
				}
				got[h].AppendBatch(piece)
			})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for h := range got {
				want := g.HourBatch(k.Hour.Time().Add(time.Duration(h)*time.Hour), k.Name, k.Columns())
				if h < from || h >= to {
					if got[h] != nil {
						t.Errorf("%s: %v: pieces of hour %d, outside its window [%d, %d)", name, k, h, from, to)
					}
				} else if (got[h] == nil && want.Len() != 0) || (got[h] != nil && !got[h].Equal(want)) {
					t.Errorf("%s: %v hour %d: its pieces differ from the hour's batch of %d rows", name, k, h, want.Len())
				} else {
					n += want.Len()
					hours++
				}
				want.Release()
			}
			if rows != n {
				t.Errorf("%s: %v: %d rows streamed, its hours hold %d", name, k, rows, n)
			}
		}
		if hours == 0 {
			t.Fatalf("%s: no hour was compared", name)
		}
	}
}

// TestHourGuards: a run that plans a reduction of hours outside a key's
// window is refused before it draws anything, and a foreign batch whose
// length disagrees with the model's row counts is refused before any
// piece of it is folded.
func TestHourGuards(t *testing.T) {
	opts := Options{FlowScale: 0.1}
	day := time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)
	plan := func(kind FlowKind, vp synth.VantagePoint, hours [2]int) error {
		r := &reduction{owner: "test", hours: hours, build: batchRows.build}
		read := dayRead{kind: kind, vp: vp, days: []time.Time{day}, by: r}
		_, err := newReadPlan(NewDataset(opts), []Experiment{{reads: []dayRead{read}}})
		return err
	}
	for _, h := range [][2]int{{9, 17}, {10, 12}} {
		if err := plan(KindFlows, synth.IXPSE, h); err != nil {
			t.Errorf("hours %v of IXP-SE's working-hours keys: %v", h, err)
		}
	}
	for _, h := range [][2]int{{8, 9}, {16, 18}, {0, 24}, {12, 11}} {
		if err := plan(KindFlows, synth.IXPSE, h); err == nil || !strings.Contains(err.Error(), "outside its window") {
			t.Errorf("hours %v of IXP-SE's working-hours keys: %v, want a refusal", h, err)
		}
	}
	if err := plan(KindFlows, synth.ISPCE, [2]int{0, 24}); err != nil {
		t.Errorf("the whole day of ISP-CE: %v", err)
	}
	if err := plan(KindFlows, synth.ISPCE, [2]int{20, 25}); err == nil || !strings.Contains(err.Error(), "outside its window") {
		t.Errorf("hours [20, 25) of ISP-CE: %v, want a refusal", err)
	}

	d := NewDataset(opts)
	ce := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(day)}
	whole, err := d.draw(ce)
	if err != nil {
		t.Fatal(err)
	}
	pieces := 0
	count := func(int, *flowrec.Batch) { pieces++ }
	if err := d.split(ce, whole, count); err != nil || pieces == 0 {
		t.Errorf("the whole day of %v: %d pieces, %v", ce, pieces, err)
	}
	pieces = 0
	if err := d.split(ce, whole.Slice(0, whole.Len()-1), count); err == nil || !strings.Contains(err.Error(), "its model's hours") || pieces != 0 {
		t.Errorf("a batch one row short: %d pieces folded, %v; want an error and none", pieces, err)
	}
}
