package faultinject

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
)

// canonical puts the scheduled events in a total order: String sorts them
// by time and shard, so a round trip may reorder them.
func canonical(s Spec) Spec {
	s.Kills = slices.Clone(s.Kills)
	slices.SortFunc(s.Kills, func(a, b KillEvent) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Shard, b.Shard))
	})
	return s
}

// FuzzParseSpec feeds arbitrary -chaos strings to ParseSpec. It must not
// panic; a spec it accepts has every probability in [0, 1] with a sum of
// at most 1 (the relay draws once per datagram) and no negative duration;
// and String renders it back into something ParseSpec reads as the same
// spec, up to the order of the scheduled events.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"drop=0.05,dup=0.01,kill=shard1@t+2s,seed=7", // README / ARCHITECTURE example
		"drop=0.05,dup=0.01,seed=7,kill=shard1@t+2s,kill=shard0@t+500ms,kill=shard2@t+1s",
		"kill=shard0@t+1s,kill=shard0@t+1s,kill=shard0@t+500ms,seed=-3",
		"drop=NaN",
		"drop=nan,dup=0.9",
		"dup=+Inf",
		"drop=-0,kill=shard0@t+0.4ns",
		"drop=0x1p-2, dup=1e-300 ,,",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		sum := 0.0
		for _, p := range []float64{spec.Drop, spec.Dup} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted probability %g: %+v", in, p, spec)
			}
			sum += p
		}
		if sum > 1 {
			t.Fatalf("ParseSpec(%q) accepted probabilities summing to %g", in, sum)
		}
		for _, k := range spec.Kills {
			if k.Shard < 0 || k.At < 0 {
				t.Fatalf("ParseSpec(%q) accepted kill %+v", in, k)
			}
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not parse: %v", in, spec.String(), err)
		}
		if want, got := canonical(spec), canonical(again); !reflect.DeepEqual(want, got) {
			t.Fatalf("ParseSpec(%q) does not round-trip through %q:\n want %+v\n  got %+v", in, spec.String(), want, got)
		}
	})
}
