package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// recordingSource notes every key the dataset asks its source for.
type recordingSource struct {
	FlowSource
	mu   sync.Mutex
	keys map[FlowKey]bool
}

func (s *recordingSource) add(k FlowKey) {
	s.mu.Lock()
	s.keys[k] = true
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
		src := &recordingSource{FlowSource: NewSyntheticSource(opts), keys: make(map[FlowKey]bool)}
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

// TestKeyCensus draws the suite experiment by experiment through a
// recording source and pins who reads which keys. It is what FlowKey.Hours
// rests on: Figure 9 is the only reader of the flows/ keys of the IXP-SE
// and IXP-US, so those keys may hold its working hours alone, and every
// other key is read by the day. A new reader of a kind shows here first.
// The union is the suite's suiteKeys, one UTC day each.
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
		got := census(perExp[id])
		if fmt.Sprint(got) != fmt.Sprint(want[id]) {
			t.Errorf("%s draws %v, want %v", id, got, want[id])
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
	if len(all) != suiteKeys {
		t.Errorf("the suite draws %d keys, want %d", len(all), suiteKeys)
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
