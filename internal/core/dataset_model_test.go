package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// TestDatasetResolvesModelOncePerVantagePoint: a dataset resolves each
// vantage point's model at first use and then shares it, so Options.Model
// — a compiled scenario, 20-odd components over freshly built profiles —
// is asked exactly once per vantage point however many goroutines look
// flows, series and generators up at once.
func TestDatasetResolvesModelOncePerVantagePoint(t *testing.T) {
	var mu sync.Mutex
	calls := make(map[synth.VantagePoint]int)
	d := NewDataset(Options{
		FlowScale: 0.1,
		Model: func(vp synth.VantagePoint) synth.Config {
			mu.Lock()
			calls[vp]++
			mu.Unlock()
			return synth.DefaultConfig(vp)
		},
	})

	vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.EDU}
	day := time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				vp := vps[(w+i)%len(vps)]
				hour := day.Add(time.Duration(i%4) * time.Hour)
				if _, err := flowBatch(d, vp, hour); err != nil {
					failed.Store(true)
				}
				if _, err := vpnFlowBatch(d, vp, hour); err != nil {
					failed.Store(true)
				}
				if _, err := d.Series(vp, day, day.AddDate(0, 0, 1)); err != nil {
					failed.Store(true)
				}
				if _, err := d.Generator(vp); err != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("a dataset lookup failed")
	}
	for _, vp := range vps {
		if calls[vp] != 1 {
			t.Errorf("Options.Model(%s) called %d times, want exactly 1", vp, calls[vp])
		}
	}
	if len(calls) != len(vps) {
		t.Errorf("Options.Model called for %d vantage points, want %d", len(calls), len(vps))
	}
}

// TestFlowKeyIsCanonical: a flow key of every kind is its UTC day (and a
// series bound its UTC hour). Keys built from the same instant in other
// zones, with a monotonic reading, or from any instant inside the day are
// ==, so they name one plan slot.
func TestFlowKeyIsCanonical(t *testing.T) {
	utc := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	mono := time.Now() // carries a monotonic reading; Round(0) strips it
	if HourOf(mono) != HourOf(mono.Round(0)) || DayOf(mono) != DayOf(mono.Round(0)) {
		t.Errorf("HourOf or DayOf differs with a monotonic reading: %d vs %d, %d vs %d", HourOf(mono), HourOf(mono.Round(0)), DayOf(mono), DayOf(mono.Round(0)))
	}
	if got := HourOf(utc).Time(); !got.Equal(utc) || got.Location() != time.UTC {
		t.Errorf("HourOf(%v).Time() = %v", utc, got)
	}

	// Every instant of the day, in UTC and at +02:00 (where the day's last
	// two hours are already the next local day), names one day.
	day := DayOf(utc)
	if got := day.Time(); !got.Equal(time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)) || got.Location() != time.UTC {
		t.Errorf("DayOf(%v).Time() = %v", utc, got)
	}
	cest := time.FixedZone("CEST", 2*3600)
	start, end := day.Time(), day.Time().Add(24*time.Hour)
	for at := start; at.Before(end); at = at.Add(time.Second) {
		if DayOf(at) != day || DayOf(at.In(cest)) != day {
			t.Fatalf("%v: day %v (UTC), %v (+02:00), want %v", at, DayOf(at).Time(), DayOf(at.In(cest)).Time(), day.Time())
		}
	}
	if last := end.Add(-time.Nanosecond); DayOf(last) != day || DayOf(end) != day+24 || DayOf(start.Add(-time.Nanosecond)) != day-24 {
		t.Errorf("the day's edges: %v, %v, %v", DayOf(last).Time(), DayOf(end).Time(), DayOf(start.Add(-time.Nanosecond)).Time())
	}

	d := NewDataset(Options{FlowScale: 0.1})
	// Nothing caches a key: each take draws it, and the draw's one lookup
	// of the model it draws from counts like any other. misses and hits
	// are what a key's first take books: a miss for each model it builds,
	// which no earlier row built, and a hit when it builds none. Every
	// later take books exactly one hit.
	for _, tc := range []struct {
		key          FlowKey
		name         string
		misses, hits int64
	}{
		{FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: day}, "flows/ISP-CE@2020-03-25", 1, 0},                                           // the generator
		{FlowKey{Kind: KindVPNFlows, VP: synth.IXPCE, Hour: day}, "vpn-flows/IXP-CE@2020-03-25", 2, 0},                                    // the VPN data and its generator
		{FlowKey{Kind: KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: day}, "component-flows/IXP-SE/gaming@2020-03-25", 1, 0}, // the generator
		{FlowKey{Kind: KindComponentFlows, VP: synth.ISPCE, Name: "gaming", Hour: day}, "component-flows/ISP-CE/gaming@2020-03-25", 0, 1}, // ISP-CE's generator is built
	} {
		get := func(at time.Time) (any, error) {
			return takeAlone(d, FlowKey{Kind: tc.key.Kind, VP: tc.key.VP, Name: tc.key.Name, Hour: DayOf(at)})
		}
		if s := tc.key.String(); s != tc.name {
			t.Errorf("String() = %q, want %q", s, tc.name)
		}
		if got := tc.key.End(); !got.Equal(end) {
			t.Errorf("%v ends at %v, want the end of its day", tc.key, got)
		}
		prev := d.Stats()
		first, err := get(utc)
		if err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		if before.Misses != prev.Misses+tc.misses || before.Hits != prev.Hits+tc.hits {
			t.Errorf("the first take of %v: %+v, then %+v; want %d misses and %d hits", tc.key, prev, before, tc.misses, tc.hits)
		}
		at := map[string]time.Time{
			"time.Local":          utc.In(time.Local),
			"+02:00":              utc.In(cest),
			"59 minutes in":       utc.Add(59*time.Minute + 59*time.Second),
			"+05:30, mid-hour":    utc.Add(30 * time.Minute).In(time.FixedZone("IST", 5*3600+1800)),
			"monotonic and local": mono.Add(utc.Sub(mono.Truncate(time.Hour))),
			"00:00":               start,
			"23:59:59, +02:00":    end.Add(-time.Second).In(cest),
		}
		for name, at := range at {
			if k := (FlowKey{Kind: tc.key.Kind, VP: tc.key.VP, Name: tc.key.Name, Hour: DayOf(at)}); k != tc.key {
				t.Errorf("%s: key %v, want %v", name, k, tc.key)
			}
			if n, err := get(at); err != nil || n != first {
				t.Errorf("%s: %v rows for the same day of %v, want %v (%v)", name, n, tc.key, first, err)
			}
		}
		if after := d.Stats(); after.Misses != before.Misses || after.Hits != before.Hits+int64(len(at)) {
			t.Errorf("%d later takes of %v: %+v, then %+v; want as many hits and no miss", len(at), tc.key, before, after)
		}
	}
}

// batchRows is a reduction of the tests' own: the key's row count.
var batchRows = &reduction{owner: "test", build: func(*Dataset) (reduceFunc, error) {
	return func(FlowKey) fold {
		n := 0
		return fold{add: func(_ int, b *flowrec.Batch) { n += b.Len() }, done: func() any { return n }}
	}, nil
}}

// takeAlone takes batchRows of k on a plan of its own, so it draws k
// afresh.
func takeAlone(d *Dataset, k FlowKey) (any, error) {
	read := dayRead{kind: k.Kind, vp: k.VP, name: k.Name, days: []time.Time{k.Hour.Time()}, by: batchRows}
	plan, err := newReadPlan(d, []Experiment{{reads: []dayRead{read}}})
	if err != nil {
		return nil, err
	}
	return plan.take(k, batchRows)
}

// TestCacheCountsIgnoreOrder: a draw's lookup of the model it draws from
// counts like an experiment's, so taking a flows/ key and asking for its
// vantage point's generator book the same counts in either order: one
// miss, which builds the generator, and one hit.
func TestCacheCountsIgnoreOrder(t *testing.T) {
	k := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC))}
	take := func(d *Dataset) error { _, err := takeAlone(d, k); return err }
	gen := func(d *Dataset) error { _, err := d.Generator(k.VP); return err }
	for name, order := range map[string][]func(*Dataset) error{"take, then Generator": {take, gen}, "Generator, then take": {gen, take}} {
		d := NewDataset(Options{FlowScale: 0.05})
		for _, step := range order {
			if err := step(d); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := d.Stats(), (CacheStats{Hits: 1, Misses: 1}); got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
}
