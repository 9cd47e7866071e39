package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	defer d.Close()

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
				if _, err := d.FlowBatch(vp, hour); err != nil {
					failed.Store(true)
				}
				if _, err := d.VPNFlowBatch(vp, hour); err != nil {
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

// TestFlowKeyIsCanonical: a flow key is its UTC hour. Keys built from the
// same instant in other zones, with a monotonic reading, or from any
// instant inside the hour are ==, so they name one cache entry.
func TestFlowKeyIsCanonical(t *testing.T) {
	utc := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	mono := time.Now() // carries a monotonic reading; Round(0) strips it
	if HourOf(mono) != HourOf(mono.Round(0)) {
		t.Errorf("HourOf differs with a monotonic reading: %d vs %d", HourOf(mono), HourOf(mono.Round(0)))
	}
	if got := HourOf(utc).Time(); !got.Equal(utc) || got.Location() != time.UTC {
		t.Errorf("HourOf(%v).Time() = %v", utc, got)
	}
	want := FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: HourOf(utc)}
	if s := want.String(); s != "flows/ISP-CE@2020-03-25T20" {
		t.Errorf("String() = %q", s)
	}

	d := NewDataset(Options{FlowScale: 0.1})
	defer d.Close()
	first, err := d.FlowBatch(synth.ISPCE, utc)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if before.Entries != 2 || before.Hits != 0 {
		t.Errorf("the first lookup memoizes the batch and its generator: %+v", before)
	}
	for name, at := range map[string]time.Time{
		"time.Local":          utc.In(time.Local),
		"+02:00":              utc.In(time.FixedZone("CEST", 2*3600)),
		"59 minutes in":       utc.Add(59*time.Minute + 59*time.Second),
		"+05:30, mid-hour":    utc.Add(30 * time.Minute).In(time.FixedZone("IST", 5*3600+1800)),
		"monotonic and local": mono.Add(utc.Sub(mono.Truncate(time.Hour))),
	} {
		if k := (FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: HourOf(at)}); k != want {
			t.Errorf("%s: key %v, want %v", name, k, want)
		}
		if b, err := d.FlowBatch(synth.ISPCE, at); err != nil || b != first {
			t.Errorf("%s: a second batch for the same hour (%v)", name, err)
		}
	}
	after := d.Stats()
	if after.Entries != before.Entries || after.Misses != before.Misses || after.Hits != before.Hits+5 {
		t.Errorf("five lookups of a cached hour: %+v, then %+v; want five hits and no new entry", before, after)
	}
}

// BenchmarkDatasetFlowBatchHit is the warm lookup of one cached hour: the
// path every scan takes once per hour it visits. Its allocation count is
// gated (cmd/benchgate) so per-lookup model or fingerprint construction
// cannot come back.
func BenchmarkDatasetFlowBatchHit(b *testing.B) {
	d := NewDataset(Options{FlowScale: 0.1})
	defer d.Close()
	hour := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	if _, err := d.FlowBatch(synth.ISPCE, hour); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.FlowBatch(synth.ISPCE, hour); err != nil {
			b.Fatal(err)
		}
	}
}
