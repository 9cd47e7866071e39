package synth

import (
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
)

// samplerHours are the probe hours of the sampler equivalence tests: a
// pre-lockdown night, a lockdown evening and a weekend afternoon.
var samplerHours = []time.Time{
	date(2020, 2, 19).Add(3 * time.Hour),
	date(2020, 3, 25).Add(20 * time.Hour),
	date(2020, 4, 18).Add(15 * time.Hour),
}

// samplerColumnSets are the sets TestHourBatchMasksStoresOnly stores: the
// three the dataset cache generates with, full width, and every single
// column.
func samplerColumnSets() []flowrec.Columns {
	ports := flowrec.PortLaneColumns
	sets := []flowrec.Columns{
		ports | flowrec.ColBytes | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir,
		ports | flowrec.ColBytes | flowrec.ColSrcIP | flowrec.ColDstIP,
		flowrec.ColBytes | flowrec.ColDstIP,
		flowrec.AllColumns,
	}
	for c := 0; c < flowrec.NumColumns; c++ {
		sets = append(sets, 1<<c)
	}
	return sets
}

var samplerGateways = []netip.Addr{netip.MustParseAddr("10.99.0.1"), netip.MustParseAddr("10.99.0.2"), netip.MustParseAddr("10.99.0.3")}

// samplerCase is one generator of the equivalence table: a vantage point,
// optionally gateway-pinned, optionally asked for one component only.
type samplerCase struct {
	vp        VantagePoint
	pinned    bool
	component string
}

func samplerCases() []samplerCase {
	var cases []samplerCase
	for _, vp := range AllVantagePoints() {
		cases = append(cases, samplerCase{vp: vp})
	}
	return append(cases, samplerCase{vp: IXPCE, pinned: true}, samplerCase{vp: IXPSE, component: "gaming"})
}

func (c samplerCase) generator(t testing.TB, seed int64, scale float64) *Generator {
	cfg := DefaultConfig(c.vp)
	cfg.Seed, cfg.FlowScale = seed, scale
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.pinned {
		g.SetVPNGateways(samplerGateways)
	}
	return g
}

// boundaryScale is a flow scale at which the table's component-hours
// include ones of exactly drawChunk-1, drawChunk and drawChunk+1 rows and
// one of more than two chunks.
const boundaryScale = 3

// TestSamplerMatchesReference holds the two-pass sampler to the
// row-at-a-time loop it replaced (reference_test.go), column for column
// with ==: every vantage point, the gateway-pinned and the
// single-component draw, five flow scales, two seeds, three hours and every
// column set. Two goroutines share each generator, so under -race this is
// also the check that the sampler keeps no per-call state on it.
func TestSamplerMatchesReference(t *testing.T) {
	sets := samplerColumnSets()
	flowCounts := map[int]bool{}
	for _, tc := range samplerCases() {
		for _, scale := range []float64{0.1, 0.5, 2, 8, boundaryScale} {
			for _, seed := range []int64{0, 7} {
				g := tc.generator(t, seed, scale)
				for _, hour := range samplerHours {
					if scale == boundaryScale {
						h := hourAt(hour)
						for i := range g.plan {
							flowCounts[g.sampled(&g.plan[i], &h).flows] = true
						}
					}
					want := refHourBatch(g, hour, tc.component, flowrec.AllColumns)
					var wg sync.WaitGroup
					for w := 0; w < 2; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for i := w; i < len(sets); i += 2 {
								got := g.HourBatch(hour, tc.component, sets[i])
								if !got.Equal(want.Project(sets[i])) {
									t.Errorf("%+v scale %g seed %d %s, columns %s: the sampler differs from the reference",
										tc, scale, seed, hour.Format("2006-01-02T15"), sets[i])
								}
								got.Release()
							}
						}(w)
					}
					wg.Wait()
				}
			}
		}
	}
	for _, n := range []int{drawChunk - 1, drawChunk, drawChunk + 1} {
		if !flowCounts[n] {
			t.Errorf("no component-hour of exactly %d rows at flow scale %v: the chunk boundary is not exercised", n, float64(boundaryScale))
		}
	}
	long := false
	for n := range flowCounts {
		long = long || n > 2*drawChunk
	}
	if !long {
		t.Errorf("no component-hour of more than %d rows at flow scale %v", 2*drawChunk, float64(boundaryScale))
	}
}

// FuzzSamplerMatchesReference is TestSamplerMatchesReference over
// arbitrary (vantage point, hour of the study window, seed, flow scale,
// column set, pinning); the table of that test is its seed corpus.
func FuzzSamplerMatchesReference(f *testing.F) {
	studyHours := int(calendar.StudyEnd.Sub(calendar.StudyStart) / time.Hour)
	vps, sets := AllVantagePoints(), samplerColumnSets()
	// The table of TestSamplerMatchesReference, its column sets dealt out
	// in turn: the seed corpus runs with every plain `go test`.
	n := 0
	for vp := range vps {
		for _, scale := range []float64{0.1, 0.5, 2, 8, boundaryScale} {
			for _, seed := range []int64{0, 7} {
				for _, hour := range samplerHours {
					f.Add(uint8(vp), uint16(hour.Sub(calendar.StudyStart)/time.Hour), seed, math.Float64bits(scale), uint16(sets[n%len(sets)]), n%3 == 0)
					n++
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, vp uint8, hour uint16, seed int64, scaleBits uint64, cols uint16, pinned bool) {
		scale := math.Float64frombits(scaleBits)
		if !(scale >= 0.05) { // NaN included
			scale = 0.05
		}
		scale = min(scale, 16)
		set := flowrec.Columns(cols) & flowrec.AllColumns
		if set == 0 {
			set = flowrec.AllColumns
		}
		g := samplerCase{vp: vps[int(vp)%len(vps)], pinned: pinned}.generator(t, seed, scale)
		at := calendar.StudyStart.Add(time.Duration(int(hour)%studyHours) * time.Hour)
		got, want := g.HourBatch(at, "", set), refHourBatch(g, at, "", set)
		if !got.Equal(want) {
			t.Errorf("%s scale %v seed %d pinned %v %s, columns %s: the sampler differs from the reference",
				g.cfg.VP, scale, seed, pinned, at.Format("2006-01-02T15"), set)
		}
	})
}

// TestBoundedDrawMatchesIntn: step, Lemire's product, the inline accept
// test and redraw — the sequence the sampler writes out at each bounded
// draw — return the reference Intn's value and leave the reference's
// state, for small bounds, the sampler's own, and two large ones that take
// the paths the sampler's bounds all but never do.
func TestBoundedDrawMatchesIntn(t *testing.T) {
	for _, bound := range []uint32{1, 2, 3, 17, 290, 3600, 16000, 65534, 1<<31 + 1, 1<<32 - 1} {
		ref := newPCG(uint64(bound))
		state, inc := ref.state, ref.inc
		helperRan, redrew := 0, 0
		for i := 0; i < 100_000; i++ {
			var v uint32
			var prod uint64
			state, v = step(state, inc)
			if prod = uint64(v) * uint64(bound); uint32(prod) < bound {
				helperRan++
				before := state
				if state, prod = redraw(state, inc, prod, bound); state != before {
					redrew++
				}
			}
			if want := ref.Intn(int(bound)); int(prod>>32) != want || state != ref.state {
				t.Fatalf("bound %d, draw %d: got %d in state %#x, Intn returns %d in state %#x", bound, i, prod>>32, state, want, ref.state)
			}
		}
		// The low half of the product is below the bound — and redraw runs —
		// in about bound of 2^32 draws: never in a short test of the sampler's
		// own bounds, every second draw or more for these two. 2^32 mod
		// (2^31+1) is nearly 2^31, so there about every second draw is redone.
		if bound >= 1<<31 && helperRan < 40_000 {
			t.Errorf("bound %d: redraw ran %d times in 100000 draws", bound, helperRan)
		}
		if bound == 1<<31+1 && redrew < 40_000 {
			t.Errorf("bound %d: %d draws were redone in 100000", bound, redrew)
		}
	}
}

// pickOf is the pick as the sampler's store pass resolves it.
func pickOf(m uint64, below []uint64) int {
	picks := []uint64{m}
	resolve(picks, below)
	return int(picks[0])
}

// refPickOf is pickWeighted for the uniform draw whose mantissa is m: a
// generator that has m coming next is not needed, the scan is the same.
func refPickOf(m uint64, w []float64) int {
	if len(w) <= 1 {
		return 0
	}
	r := float64(m) / (1 << 53)
	var acc float64
	for i, wi := range w {
		acc += wi
		if r < acc {
			return i
		}
	}
	return len(w) - 1
}

// TestPickMatchesPickWeighted: the branch-free count over pickBelow's
// thresholds picks pickWeighted's index at, just below and just above every
// threshold, at both ends of the mantissa range and for random mantissas —
// for the compiled tables of every component of every vantage point, a
// list whose sum exceeds 1 by an ulp and one with a zero weight in the
// middle.
func TestPickMatchesPickWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, w []float64, below []uint64, random int) {
		probes := []uint64{0, 1<<53 - 1}
		for _, th := range below {
			probes = append(probes, th-1, th, th+1)
		}
		for i := 0; i < random; i++ {
			probes = append(probes, rng.Uint64()>>11)
		}
		for _, m := range probes {
			if m >= 1<<53 { // beside a threshold at either end of the range
				continue
			}
			if got, want := pickOf(m, below), refPickOf(m, w); got != want {
				t.Fatalf("%s: mantissa %#x picks %d, pickWeighted %d", name, m, got, want)
			}
		}
	}
	above1 := []float64{0.5, 0.5 + 0x1p-52, 0.125, 0.125}
	if sum := above1[0] + above1[1]; sum != math.Nextafter(1, 2) {
		t.Fatalf("the hand-built list reaches %v at its second weight, want 1 plus an ulp", sum)
	}
	check("sum-above-1", above1, pickBelow(above1), 100_000)
	zeroInside := []float64{0.3, 0, 0, 0.3, 0.4}
	check("zero-inside", zeroInside, pickBelow(zeroInside), 100_000)
	// The components' lists are Zipf weights, equal for equal lengths: the
	// random mantissas are spent once per length.
	seen := map[int]bool{}
	for _, vp := range AllVantagePoints() {
		g := MustNewDefault(vp)
		for i := range g.plan {
			p := &g.plan[i]
			for _, side := range []struct {
				name  string
				w     []float64
				below []uint64
			}{{"src", p.srcWeights, p.srcBelow}, {"dst", p.dstWeights, p.dstBelow}} {
				random := 0
				if !seen[len(side.w)] {
					seen[len(side.w)], random = true, 100_000
				}
				check(string(vp)+"/"+p.c.Name+"/"+side.name, side.w, side.below, random)
			}
		}
	}
	// refPickOf is pickWeighted: the same index from the same draw.
	w := MustNewDefault(EDU).plan[0].srcWeights
	a, b := newPCG(3), newPCG(3)
	for i := 0; i < 1000; i++ {
		if got, want := refPickOf(a.next64()>>11, w), pickWeighted(&b, w); got != want {
			t.Fatalf("draw %d: refPickOf %d, pickWeighted %d", i, got, want)
		}
	}
}

// TestNewRefusesUnsampleableComponents: what the sampler would index out
// of range is an error from New, not a panic at the first sampled hour.
func TestNewRefusesUnsampleableComponents(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ports []flowrec.PortProto
		want  string
	}{
		{"no ports", nil, "has 0 ports"},
		{"empty ports", []flowrec.PortProto{}, "has 0 ports"},
		{"more ports than the scratch indexes", make([]flowrec.PortProto, maxPorts+1), "has 65537 ports"},
		{"as many ports as the scratch indexes", make([]flowrec.PortProto, maxPorts), ""},
		{"one port", []flowrec.PortProto{{Port: 443, Proto: flowrec.ProtoTCP}}, ""},
	} {
		cfg := DefaultConfig(ISPCE)
		cfg.Components[0].Ports = tc.ports
		g, err := New(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: New refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: New returned %v, want an error containing %q", tc.name, err, tc.want)
		case err == nil:
			b := g.HourBatch(samplerHours[1], cfg.Components[0].Name, flowrec.PortLaneColumns)
			if b.Len() == 0 {
				t.Errorf("%s: no flows in the probe hour", tc.name)
			}
		}
	}
}

// TestEndpointPoolSaturates: an endpoint pool times connection response
// beyond 32 bits draws hosts from the whole 32-bit range instead of from
// its truncation (a pool of 2^32 used to draw every host as 0).
func TestEndpointPoolSaturates(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot hold such a pool")
	}
	for _, shift := range []uint{32, 40, 62} {
		pool := 1 << shift
		cfg := DefaultConfig(ISPCE)
		cfg.Components[0].EndpointPool = pool
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := g.HourBatch(samplerHours[1], cfg.Components[0].Name, flowrec.ColSrcIP)
		hosts := map[flowrec.Addr]bool{}
		for _, a := range b.SrcIP {
			hosts[a] = true
		}
		if len(hosts) < b.Len()/2 {
			t.Errorf("pool %d: %d distinct source addresses in %d flows", pool, len(hosts), b.Len())
		}
	}
}

// BenchmarkSamplerHourProjected measures the ISP-CE hour of
// BenchmarkSamplerHour the way the suite generates three rows in four: the
// flows/ column set (22 B a row), the batch handed back each time.
func BenchmarkSamplerHourProjected(b *testing.B) {
	g := MustNewDefault(ISPCE)
	probe := date(2020, 3, 25).Add(20 * time.Hour)
	cols := samplerColumnSets()[0]
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := g.HourBatch(probe, "", cols)
		rows += batch.Len()
		batch.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}
