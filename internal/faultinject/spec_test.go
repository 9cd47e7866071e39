package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("drop=0.05,dup=0.01,reorder=0.02,corrupt=0.001,seed=7,kill=shard1@t+2s,kill=shard0@t+500ms,stall=shard2@t+1s:250ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Drop != 0.05 || spec.Dup != 0.01 || spec.Reorder != 0.02 || spec.Corrupt != 0.001 {
		t.Fatalf("probabilities: %+v", spec)
	}
	if spec.Seed != 7 {
		t.Fatalf("seed: %+v", spec)
	}
	if len(spec.Kills) != 2 || spec.Kills[0] != (KillEvent{Shard: 1, At: 2 * time.Second}) {
		t.Fatalf("kills: %+v", spec.Kills)
	}
	if len(spec.Stalls) != 1 || spec.Stalls[0] != (StallEvent{Shard: 2, At: time.Second, For: 250 * time.Millisecond}) {
		t.Fatalf("stalls: %+v", spec.Stalls)
	}
	if !spec.Active() {
		t.Fatal("full spec reported inactive")
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"drop=0.05",
		"drop=0.05,dup=0.01,reorder=0.02,corrupt=0.001",
		"kill=shard1@t+2s,seed=7",
		"kill=shard0@t+500ms,kill=shard1@t+2s,stall=shard2@t+1s:250ms,seed=-3",
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
		"drop",                   // not key=value
		"jitter=0.1",             // unknown key
		"drop=1.5",               // probability out of range
		"drop=-0.1",              // probability out of range
		"dup=abc",                // not a number
		"drop=0.6,dup=0.6",       // sum over 1
		"delay=5ms",              // no fault: a uniform delay reaches no bridge path drop= does not
		"seed=pi",                // not an integer
		"kill=shard1",            // no @t+
		"kill=pump1@t+2s",        // target is not shardN
		"kill=shard-1@t+2s",      // negative shard
		"kill=shardx@t+2s",       // non-numeric shard
		"kill=shard1@2s",         // missing t+
		"kill=shard1@t+-2s",      // negative offset
		"kill=shard1@t+soon",     // bad duration
		"stall=shard1@t+1s",      // stall without window
		"stall=shard1@t+1s:zero", // bad window
		"stall=shard1@t+1s:-1s",  // negative window
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
		{"drop=nan,dup=0.9,corrupt=0.9", "drop"}, // would have summed to 1.8
		{"dup=0.1,reorder=+Inf", "reorder"},
		{"corrupt=-inf", "corrupt"},
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
		{Drop: 0.1}, {Dup: 0.1}, {Reorder: 0.1}, {Corrupt: 0.1},
		{Kills: []KillEvent{{Shard: 0, At: time.Second}}},
		{Stalls: []StallEvent{{Shard: 0, At: time.Second, For: time.Second}}},
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
	spec := Spec{
		Kills:  []KillEvent{{Shard: 1, At: time.Second}},
		Stalls: []StallEvent{{Shard: 4, At: time.Second, For: time.Second}},
	}
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

func TestSpecStalled(t *testing.T) {
	spec := Spec{Stalls: []StallEvent{{Shard: 1, At: time.Second, For: 500 * time.Millisecond}}}
	for _, tc := range []struct {
		shard   int
		elapsed time.Duration
		want    bool
	}{
		{1, 999 * time.Millisecond, false},
		{1, time.Second, true},
		{1, 1400 * time.Millisecond, true},
		{1, 1500 * time.Millisecond, false},
		{0, 1200 * time.Millisecond, false},
	} {
		if got := spec.stalled(tc.shard, tc.elapsed); got != tc.want {
			t.Errorf("stalled(%d, %v) = %v, want %v", tc.shard, tc.elapsed, got, tc.want)
		}
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
	if s := (Spec{Stalls: []StallEvent{{Shard: 0, At: time.Second, For: time.Second}}}).String(); !strings.Contains(s, "stall=shard0@t+1s:1s") {
		t.Fatalf("render = %q", s)
	}
}
