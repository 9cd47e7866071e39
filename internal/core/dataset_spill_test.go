package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lockdown/internal/flowstore"
	"lockdown/internal/synth"
)

// spillHour is an arbitrary study-window hour used by the direct dataset
// tests below.
var spillHour = time.Date(2020, 3, 25, 14, 0, 0, 0, time.UTC)

// tinyOpts forces every flow batch to spill: no batch fits one byte.
func tinyOpts(t *testing.T) Options {
	t.Helper()
	return Options{FlowScale: 0.02, CacheBudget: 1, CacheDir: t.TempDir()}
}

// TestSpillFaultAccounting drives one entry through the full tier cycle —
// generate, evict+spill, fault back in — and checks every counter and
// byte gauge the stats expose.
func TestSpillFaultAccounting(t *testing.T) {
	d := NewDataset(tinyOpts(t))
	defer d.Close()

	b1, err := d.FlowBatch(synth.ISPCE, spillHour)
	if err != nil {
		t.Fatal(err)
	}
	want := b1.Project(b1.Columns()) // a heap copy the cache does not own
	s := d.Stats()
	if s.Spills == 0 {
		t.Fatalf("unpinned access under a 1-byte budget must spill immediately: %+v", s)
	}
	if s.SpilledBytes == 0 {
		t.Errorf("spilled bytes not accounted: %+v", s)
	}
	if s.ResidentBytes != 0 {
		t.Errorf("resident bytes should drop to 0 after eviction: %+v", s)
	}
	if s.Faults != 0 {
		t.Errorf("no fault expected yet: %+v", s)
	}

	// The evicted batch we still hold must remain fully readable.
	if !want.Equal(b1) {
		t.Fatal("batch handed out before eviction changed under the caller")
	}

	b2, err := d.FlowBatch(synth.ISPCE, spillHour)
	if err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.Faults == 0 {
		t.Fatalf("second access must fault the spilled entry back in: %+v", s)
	}
	if s.Regens != 0 {
		t.Errorf("clean segment must not regenerate: %+v", s)
	}
	if !want.Equal(b2) {
		t.Fatal("faulted-in batch differs from the generated one")
	}
	if !b2.IsView() {
		t.Error("faulted-in batch should be a segment view")
	}

	// The spill applies to the VPN and component batch kinds too.
	if _, err := d.VPNFlowBatch(synth.IXPCE, spillHour); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ComponentFlowBatch(synth.IXPSE, "gaming", spillHour); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.Spills < 3 {
		t.Errorf("each batch kind must spill under the tiny budget: %+v", s)
	}
}

// TestPinKeepsEntriesResident asserts the pinning contract: a pinned
// entry survives budget pressure, repeated pinned access returns the same
// resident batch without re-faulting, and release lets it spill.
func TestPinKeepsEntriesResident(t *testing.T) {
	d := NewDataset(tinyOpts(t))
	defer d.Close()

	pin := d.NewPin()
	b1, err := pin.Batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(spillHour)})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.ResidentBytes == 0 {
		t.Fatalf("pinned entry must stay resident over budget: %+v", s)
	}
	faultsBefore := s.Faults
	b2, err := pin.Batch(FlowKey{Kind: KindFlows, VP: synth.ISPCE, Hour: DayOf(spillHour)})
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("pinned re-access must return the identical resident batch")
	}
	if s = d.Stats(); s.Faults != faultsBefore {
		t.Errorf("pinned re-access must not fault: %+v", s)
	}

	pin.Release()
	s = d.Stats()
	if s.ResidentBytes != 0 {
		t.Errorf("release must let the entry spill down to the budget: %+v", s)
	}
	if s.Spills == 0 {
		t.Errorf("released entry must have spilled: %+v", s)
	}
	pin.Release() // idempotent
}

// corruptSegments mutates every span file under dir.
func corruptSegments(t *testing.T, dir string, mutate func(string)) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && filepath.Ext(path) == flowstore.SpannedExt {
			mutate(path)
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCrashSafetyCorruptSegment damages the span file in every way a
// real crash or disk fault can — bit flips, truncation, deletion — and
// asserts the cache serves the exact batch regardless: regenerated from
// its source when the span's bytes are damaged or gone, or — for a file
// deleted while the process holds it open — still read through the
// descriptor.
func TestCrashSafetyCorruptSegment(t *testing.T) {
	cases := []struct {
		name      string
		mutate    func(string)
		wantRegen bool
	}{
		{"bitflip", func(p string) {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			raw[4096+(len(raw)-4096)/2] ^= 0xff // the file's one span starts after the header page
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"truncate", func(p string) {
			if err := os.Truncate(p, 4096+200); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"delete", func(p string) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tinyOpts(t)
			d := NewDataset(opts)
			defer d.Close()

			b, err := d.FlowBatch(synth.ISPCE, spillHour)
			if err != nil {
				t.Fatal(err)
			}
			want := b.Project(b.Columns())
			if n := corruptSegments(t, opts.CacheDir, tc.mutate); n == 0 {
				t.Fatal("no span files found to damage")
			}
			got, err := d.FlowBatch(synth.ISPCE, spillHour)
			if err != nil {
				t.Fatalf("access after %s must not fail, got error: %v", tc.name, err)
			}
			if !want.Equal(got) {
				t.Fatalf("batch differs after %s", tc.name)
			}
			s := d.Stats()
			if tc.wantRegen && s.Regens == 0 {
				t.Errorf("regeneration not counted: %+v", s)
			}
			// A later eviction appends a fresh span and the entry keeps
			// working.
			got, err = d.FlowBatch(synth.ISPCE, spillHour)
			if err != nil {
				t.Fatalf("entry unusable after %s: %v", tc.name, err)
			}
			if !want.Equal(got) {
				t.Fatalf("second access differs after %s", tc.name)
			}
		})
	}
}

// TestDatasetCloseReleasesSpill asserts Close removes the spill directory
// and that the dataset still serves correct (regenerated) batches after.
func TestDatasetCloseReleasesSpill(t *testing.T) {
	opts := tinyOpts(t)
	d := NewDataset(opts)
	b, err := d.FlowBatch(synth.ISPCE, spillHour)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Project(b.Columns())
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := corruptSegments(t, opts.CacheDir, func(string) {}); n != 0 {
		t.Errorf("%d span files survived Close", n)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	got, err := d.FlowBatch(synth.ISPCE, spillHour)
	if err != nil {
		t.Fatalf("access after Close: %v", err)
	}
	if !want.Equal(got) {
		t.Fatal("batch after Close differs")
	}
}

// sameResults asserts two suite runs agree result for result: IDs,
// tables, notes, and every metric outside _runtime/ bit for bit.
func sameResults(t *testing.T, label string, want, got []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID {
			t.Fatalf("%s: result %d is %s, want %s", label, i, g.ID, w.ID)
		}
		wm, gm := stripRuntime(w.Metrics), stripRuntime(g.Metrics)
		if len(wm) != len(gm) {
			t.Errorf("%s: %s: metric counts differ (%d vs %d)", label, w.ID, len(wm), len(gm))
		}
		for k, wv := range wm {
			if gv, ok := gm[k]; !ok || math.Float64bits(wv) != math.Float64bits(gv) {
				t.Errorf("%s: %s: metric %q = %v, want bit-exact %v", label, w.ID, k, gm[k], wv)
			}
		}
		if !reflect.DeepEqual(w.Tables, g.Tables) {
			t.Errorf("%s: %s: tables differ", label, w.ID)
		}
		if !reflect.DeepEqual(w.Notes, g.Notes) {
			t.Errorf("%s: %s: notes differ", label, w.ID)
		}
	}
}

// TestRunAllSpillDeterminism is the tier-cache acceptance check: the full
// suite on a parallel engine must produce bit-identical experiment
// metrics with spilling disabled, with a generous budget and with a
// 1-byte budget that spills every entry — and the tiny-budget run must
// actually have spilled and faulted. Runs under -race in CI.
func TestRunAllSpillDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spill determinism runs the full suite three times")
	}
	base := Options{FlowScale: 0.05, Seed: 3}
	run := func(opts Options) ([]*Result, CacheStats) {
		t.Helper()
		e := NewEngine(opts)
		defer e.Data().Close()
		rs, err := e.RunAll(context.Background(), 8)
		if err != nil {
			t.Fatalf("RunAll(%+v): %v", opts, err)
		}
		return rs, e.Data().Stats()
	}
	want, _ := run(base)

	generous := base
	generous.CacheBudget, generous.CacheDir = 1<<30, t.TempDir()
	tiny := base
	tiny.CacheBudget, tiny.CacheDir = 1, t.TempDir()

	for _, tc := range []struct {
		label      string
		opts       Options
		wantSpills bool
	}{
		{"generous-budget", generous, false},
		{"tiny-budget", tiny, true},
	} {
		got, stats := run(tc.opts)
		if tc.wantSpills && (stats.Spills == 0 || stats.Faults == 0) {
			t.Errorf("%s: expected spill/fault activity, got %+v", tc.label, stats)
		}
		sameResults(t, tc.label, want, got)
	}
}
