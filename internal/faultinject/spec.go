// Package faultinject is the cluster's deterministic chaos harness: a
// seeded fault model for the replay wire and the cluster's pumps, so a
// failure run is as replayable as a clean one.
//
// A Spec is parsed from a compact comma-separated string
// (`drop=0.05,dup=0.01,kill=shard1@t+2s,seed=7`) and drives two
// injection points:
//
//   - The Relay sits on the pump → bridge data path and applies
//     per-datagram faults — drop, duplicate, reorder, corrupt —
//     decided by a splitmix64-based PRF keyed on (seed, stream,
//     per-stream datagram index). The decision for datagram n of stream
//     s depends on nothing else, so the same seed over the same
//     per-stream datagram sequence reproduces the same fault schedule
//     regardless of wall-clock timing or interleaving with other
//     streams. Stall windows blackhole one shard's datagrams for a
//     scheduled interval.
//   - The cluster consumes the kill schedule (KillFor):
//     `kill=shardN@t+X` closes shard N's pump once, X after cluster
//     start. The shard is dead from then on, and the survival path —
//     its vantage points re-partitioned over the other shards — is
//     exercised deterministically.
//
// Every fault the relay injects is recoverable by the bridge's
// retry/verify machinery (a corrupted packet fails decode or
// verification and is re-requested), so chaos runs remain byte-identical
// to clean runs; the chaos golden test in internal/cluster pins that.
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

// StallEvent blackholes one shard's datagrams at the relay for a window
// [At, At+For) after cluster start. The pump stays alive; the bridge
// sees pure loss and retries through it.
type StallEvent struct {
	Shard int
	At    time.Duration
	For   time.Duration
}

// Spec is a reproducible fault schedule. The probability fields are
// per-datagram and mutually exclusive (one PRF draw per datagram picks
// at most one fault), so their sum must not exceed 1.
type Spec struct {
	Drop    float64 // P(datagram dropped)
	Dup     float64 // P(datagram sent twice)
	Reorder float64 // P(datagram held and delivered after its successor)
	Corrupt float64 // P(one byte of the datagram flipped)

	// Seed keys the PRF; the same seed reproduces the same per-stream
	// fault pattern.
	Seed int64

	Kills  []KillEvent
	Stalls []StallEvent
}

// ParseSpec parses the -chaos flag syntax: comma-separated k=v pairs.
//
//	drop=0.05            dup=0.01         reorder=0.02     corrupt=0.001
//	seed=7               kill=shard1@t+2s stall=shard0@t+1s:500ms
//
// kill= and stall= may repeat. Shard indices are validated against the
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
		case "reorder":
			spec.Reorder, err = parseProb(key, val)
		case "corrupt":
			spec.Corrupt, err = parseProb(key, val)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "kill":
			var ev KillEvent
			ev.Shard, ev.At, _, err = parseEvent(val, false)
			spec.Kills = append(spec.Kills, ev)
		case "stall":
			var ev StallEvent
			ev.Shard, ev.At, ev.For, err = parseEvent(val, true)
			spec.Stalls = append(spec.Stalls, ev)
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown fault %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faultinject: %s=%s: %w", key, val, err)
		}
	}
	if sum := spec.Drop + spec.Dup + spec.Reorder + spec.Corrupt; sum > 1 {
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

// parseEvent parses `shardN@t+DUR` (kill) or `shardN@t+DUR:DUR` (stall).
func parseEvent(val string, withWindow bool) (shard int, at, window time.Duration, err error) {
	target, when, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, 0, fmt.Errorf("want shardN@t+duration")
	}
	num, ok := strings.CutPrefix(target, "shard")
	if !ok {
		return 0, 0, 0, fmt.Errorf("target %q does not name a shard", target)
	}
	shard, err = strconv.Atoi(num)
	if err != nil || shard < 0 {
		return 0, 0, 0, fmt.Errorf("bad shard index %q", num)
	}
	offset, ok := strings.CutPrefix(when, "t+")
	if !ok {
		return 0, 0, 0, fmt.Errorf("time %q must be t+duration", when)
	}
	if withWindow {
		var winStr string
		offset, winStr, ok = strings.Cut(offset, ":")
		if !ok {
			return 0, 0, 0, fmt.Errorf("stall needs a window: shardN@t+start:duration")
		}
		window, err = time.ParseDuration(winStr)
		if err != nil || window <= 0 {
			return 0, 0, 0, fmt.Errorf("bad stall window %q", winStr)
		}
	}
	at, err = time.ParseDuration(offset)
	if err != nil || at < 0 {
		return 0, 0, 0, fmt.Errorf("bad time offset %q", offset)
	}
	return shard, at, window, nil
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
	add("reorder", s.Reorder)
	add("corrupt", s.Corrupt)
	kills := append([]KillEvent(nil), s.Kills...)
	sort.Slice(kills, func(i, j int) bool {
		return kills[i].At < kills[j].At || (kills[i].At == kills[j].At && kills[i].Shard < kills[j].Shard)
	})
	for _, k := range kills {
		parts = append(parts, fmt.Sprintf("kill=shard%d@t+%s", k.Shard, k.At))
	}
	stalls := append([]StallEvent(nil), s.Stalls...)
	sort.Slice(stalls, func(i, j int) bool {
		return stalls[i].At < stalls[j].At || (stalls[i].At == stalls[j].At && stalls[i].Shard < stalls[j].Shard)
	})
	for _, st := range stalls {
		parts = append(parts, fmt.Sprintf("stall=shard%d@t+%s:%s", st.Shard, st.At, st.For))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, ",")
}

// Active reports whether the spec injects anything at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Reorder > 0 || s.Corrupt > 0 ||
		len(s.Kills) > 0 || len(s.Stalls) > 0
}

// MaxShard returns the largest shard index any scheduled event names
// (-1 if none); cluster.Spec validates it against the shard count.
func (s Spec) MaxShard() int {
	maxShard := -1
	for _, k := range s.Kills {
		maxShard = max(maxShard, k.Shard)
	}
	for _, st := range s.Stalls {
		maxShard = max(maxShard, st.Shard)
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

// stalled reports whether a shard's datagrams are inside a blackhole
// window at the given offset from cluster start.
func (s Spec) stalled(shard int, elapsed time.Duration) bool {
	for _, st := range s.Stalls {
		if st.Shard == shard && elapsed >= st.At && elapsed < st.At+st.For {
			return true
		}
	}
	return false
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
