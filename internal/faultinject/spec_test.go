package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("drop=0.05,dup=0.01,seed=7,kill=shard1@t+2s,kill=shard0@t+500ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Drop != 0.05 || spec.Dup != 0.01 {
		t.Fatalf("probabilities: %+v", spec)
	}
	if spec.Seed != 7 {
		t.Fatalf("seed: %+v", spec)
	}
	if len(spec.Kills) != 2 || spec.Kills[0] != (KillEvent{Shard: 1, At: 2 * time.Second}) ||
		spec.Kills[1] != (KillEvent{Shard: 0, At: 500 * time.Millisecond}) {
		t.Fatalf("kills: %+v", spec.Kills)
	}
	if !spec.Active() {
		t.Fatal("full spec reported inactive")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"drop=0.05",
		"drop=0.05,dup=0.01",
		"kill=shard1@t+2s,seed=7",
		"kill=shard1@t+2s,kill=shard0@t+500ms,kill=shard2@t+1s,seed=-3",
		"",
	} {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", spec.String(), err)
		}
		if spec.String() != again.String() {
			t.Fatalf("%q does not round-trip: %q -> %q", in, spec.String(), again.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"drop",                // not key=value
		"jitter=0.1",          // unknown key
		"drop=1.5",            // probability out of range
		"drop=-0.1",           // probability out of range
		"dup=abc",             // not a number
		"drop=0.6,dup=0.6",    // sum over 1
		"seed=pi",             // not an integer
		"kill=shard1",         // no @t+
		"kill=pump1@t+2s",     // target is not shardN
		"kill=shard-1@t+2s",   // negative shard
		"kill=shardx@t+2s",    // non-numeric shard
		"kill=shard1@2s",      // missing t+
		"kill=shard1@t+-2s",   // negative offset
		"kill=shard1@t+soon",  // bad duration
		"kill=shard1@t+1s:1s", // a kill has no window
		// Removed faults: each reached only bridge paths that
		// internal/replay's lossy harness pins datagram by datagram, and
		// delay and stall only through the wall clock.
		"delay=5ms", "reorder=0.01", "corrupt=0.01", "stall=shard0@t+1s:1s",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// TestParseSpecRejectsNonFinite: NaN compares false with everything, so it
// used to pass both the range check and the sum guard — and a NaN
// probability renders as "", breaking the String round trip. Every
// non-finite probability is refused with its field named.
func TestParseSpecRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct{ in, field string }{
		{"drop=NaN", "drop"},
		{"drop=nan,dup=0.9", "drop"}, // would have passed the sum guard
		{"drop=0.1,dup=+Inf", "dup"},
		{"drop=-inf", "drop"},
		{"dup=nan", "dup"},
	} {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.in)
		} else if !strings.Contains(err.Error(), tc.field+" probability") {
			t.Errorf("ParseSpec(%q) = %v, want the %s probability named", tc.in, err, tc.field)
		}
	}
}

func TestSpecActive(t *testing.T) {
	if (Spec{}).Active() {
		t.Fatal("zero spec reported active")
	}
	if (Spec{Seed: 7}).Active() {
		t.Fatal("seed-only spec reported active")
	}
	for _, s := range []Spec{
		{Drop: 0.1}, {Dup: 0.1},
		{Kills: []KillEvent{{Shard: 0, At: time.Second}}},
	} {
		if !s.Active() {
			t.Errorf("%+v reported inactive", s)
		}
	}
}

func TestSpecMaxShard(t *testing.T) {
	if got := (Spec{Drop: 0.5}).MaxShard(); got != -1 {
		t.Fatalf("MaxShard with no events = %d, want -1", got)
	}
	spec := Spec{Kills: []KillEvent{{Shard: 1, At: time.Second}, {Shard: 4, At: 0}, {Shard: 2, At: time.Second}}}
	if got := spec.MaxShard(); got != 4 {
		t.Fatalf("MaxShard = %d, want 4", got)
	}
}

func TestSpecKillFor(t *testing.T) {
	spec := Spec{Kills: []KillEvent{
		{Shard: 1, At: 3 * time.Second},
		{Shard: 1, At: time.Second},
		{Shard: 2, At: 2 * time.Second},
	}}
	if at, ok := spec.KillFor(1); !ok || at != time.Second {
		t.Fatalf("KillFor(1) = %v,%v; want earliest 1s", at, ok)
	}
	if _, ok := spec.KillFor(0); ok {
		t.Fatal("KillFor(0) found a kill for an unscheduled shard")
	}
}

// TestRollDeterministic pins the property the whole harness rests on:
// the fault decision for datagram n of stream s is a pure function of
// (seed, stream, n).
func TestRollDeterministic(t *testing.T) {
	a := Spec{Seed: 7}
	b := Spec{Seed: 7}
	for n := uint64(0); n < 1000; n++ {
		if a.roll(3, n) != b.roll(3, n) {
			t.Fatalf("same (seed,stream,n=%d) rolled differently", n)
		}
	}
	if a.roll(3, 5) == (Spec{Seed: 8}).roll(3, 5) {
		t.Fatal("different seeds rolled identically")
	}
	if a.roll(3, 5) == a.roll(4, 5) {
		t.Fatal("different streams rolled identically")
	}
	if a.roll(3, 5) == a.roll(3, 6) {
		t.Fatal("different datagram indices rolled identically")
	}
}

func TestUniformRange(t *testing.T) {
	spec := Spec{Seed: 42}
	var sum float64
	const n = 10000
	for i := uint64(0); i < n; i++ {
		u := uniform(spec.roll(0, i))
		if u < 0 || u >= 1 {
			t.Fatalf("uniform draw %g outside [0,1)", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("uniform mean %g over %d draws; PRF badly biased", mean, n)
	}
}

func TestSpecStringEmpty(t *testing.T) {
	if s := (Spec{}).String(); s != "" {
		t.Fatalf("zero spec renders %q, want empty", s)
	}
	if s := (Spec{Drop: 0.05, Seed: 7}).String(); s != "drop=0.05,seed=7" {
		t.Fatalf("render = %q", s)
	}
	if s := (Spec{Kills: []KillEvent{{Shard: 1, At: time.Second}, {Shard: 0, At: time.Second}}}).String(); s != "kill=shard0@t+1s,kill=shard1@t+1s" {
		t.Fatalf("render = %q", s)
	}
}
