// Package faultinject is the cluster's deterministic chaos harness: a
// seeded fault model for the replay wire and the cluster's pumps, so a
// failure run is as replayable as a clean one.
//
// A Spec is parsed from a compact comma-separated string
// (`drop=0.05,dup=0.01,kill=shard1@t+2s,seed=7`) and drives two
// injection points:
//
//   - The Relay sits on the pump → bridge data path and drops or
//     duplicates datagrams, decided by a splitmix64-based PRF keyed on
//     (seed, stream, per-stream datagram index). The decision for
//     datagram n of stream s depends on nothing else, so the same seed
//     over the same per-stream datagram sequence reproduces the same
//     fault schedule regardless of wall-clock timing or interleaving
//     with other streams. The relay holds nothing and runs no timer.
//   - The cluster consumes the kill schedule (KillFor):
//     `kill=shardN@t+X` closes shard N's pump once, X after cluster
//     start. The shard is dead from then on, and the survival path —
//     its vantage points re-partitioned over the other shards — is
//     exercised deterministically.
//
// Every fault the relay injects is recoverable by the bridge's
// retry machinery (a dropped or duplicated datagram leaves its
// bucket's row count wrong, and the bucket is re-requested), so chaos
// runs remain byte-identical to clean runs; the chaos golden test in
// internal/cluster pins that. Reordered and corrupted datagrams are
// pinned at the bridge by internal/replay's lossy harness instead,
// datagram by datagram.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// KillEvent schedules the kill of one shard's pump: the pump is closed
// once, At after cluster start, and the shard is dead from then on.
type KillEvent struct {
	Shard int
	At    time.Duration
}

// Spec is a reproducible fault schedule. The probability fields are
// per-datagram and mutually exclusive (one PRF draw per datagram picks
// at most one fault), so their sum must not exceed 1.
type Spec struct {
	Drop float64 // P(datagram dropped)
	Dup  float64 // P(datagram sent twice)

	// Seed keys the PRF; the same seed reproduces the same per-stream
	// fault pattern.
	Seed int64

	Kills []KillEvent
}

// ParseSpec parses the -chaos flag syntax: comma-separated k=v pairs.
//
//	drop=0.05  dup=0.01  seed=7  kill=shard1@t+2s
//
// kill= may repeat. Shard indices are validated against the
// cluster size by cluster.Spec, not here.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		var err error
		switch key {
		case "drop":
			spec.Drop, err = parseProb(key, val)
		case "dup":
			spec.Dup, err = parseProb(key, val)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "kill":
			var ev KillEvent
			ev.Shard, ev.At, err = parseKill(val)
			spec.Kills = append(spec.Kills, ev)
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown fault %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faultinject: %s=%s: %w", key, val, err)
		}
	}
	if sum := spec.Drop + spec.Dup; sum > 1 {
		return Spec{}, fmt.Errorf("faultinject: fault probabilities sum to %g, must not exceed 1", sum)
	}
	return spec, nil
}

func parseProb(key, val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // negated so that NaN fails too
		return 0, fmt.Errorf("%s probability %g outside [0,1]", key, p)
	}
	return p, nil
}

// parseKill parses `shardN@t+DUR`.
func parseKill(val string) (shard int, at time.Duration, err error) {
	target, when, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want shardN@t+duration")
	}
	num, ok := strings.CutPrefix(target, "shard")
	if !ok {
		return 0, 0, fmt.Errorf("target %q does not name a shard", target)
	}
	shard, err = strconv.Atoi(num)
	if err != nil || shard < 0 {
		return 0, 0, fmt.Errorf("bad shard index %q", num)
	}
	offset, ok := strings.CutPrefix(when, "t+")
	if !ok {
		return 0, 0, fmt.Errorf("time %q must be t+duration", when)
	}
	at, err = time.ParseDuration(offset)
	if err != nil || at < 0 {
		return 0, 0, fmt.Errorf("bad time offset %q", offset)
	}
	return shard, at, nil
}

// String renders the spec in ParseSpec's syntax (canonical field order;
// round-trips through ParseSpec).
func (s Spec) String() string {
	var parts []string
	add := func(key string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", key, p))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	kills := append([]KillEvent(nil), s.Kills...)
	sort.Slice(kills, func(i, j int) bool {
		return kills[i].At < kills[j].At || (kills[i].At == kills[j].At && kills[i].Shard < kills[j].Shard)
	})
	for _, k := range kills {
		parts = append(parts, fmt.Sprintf("kill=shard%d@t+%s", k.Shard, k.At))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, ",")
}

// Active reports whether the spec injects anything at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || len(s.Kills) > 0
}

// MaxShard returns the largest shard index a kill names (-1 if none);
// cluster.Spec validates it against the shard count.
func (s Spec) MaxShard() int {
	maxShard := -1
	for _, k := range s.Kills {
		maxShard = max(maxShard, k.Shard)
	}
	return maxShard
}

// KillFor returns the earliest scheduled kill offset for a shard.
func (s Spec) KillFor(shard int) (time.Duration, bool) {
	at, found := time.Duration(0), false
	for _, k := range s.Kills {
		if k.Shard == shard && (!found || k.At < at) {
			at, found = k.At, true
		}
	}
	return at, found
}

// splitmix64 is the PRF core: a bijective 64-bit mix with good
// avalanche, cheap enough to run per datagram.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll derives the decision word for datagram n of a stream: a pure
// function of (seed, stream, n), independent of timing and of every
// other stream.
func (s Spec) roll(stream uint32, n uint64) uint64 {
	return splitmix64(uint64(s.Seed) ^ splitmix64(uint64(stream)^0x632BE59BD9B4E019) ^ splitmix64(n))
}

// uniform maps a decision word to [0,1).
func uniform(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
