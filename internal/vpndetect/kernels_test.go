package vpndetect

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"lockdown/internal/flowrec"
)

func addr4(rng *rand.Rand) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], rng.Uint32())
	return netip.AddrFrom4(b)
}

func randomVPNBatch(rng *rand.Rand, n int, candidates map[netip.Addr]bool) *flowrec.Batch {
	protos := []flowrec.Proto{
		flowrec.ProtoTCP, flowrec.ProtoUDP, flowrec.ProtoGRE, flowrec.ProtoESP, flowrec.ProtoICMP,
	}
	ports := []uint16{443, 500, 1194, 1701, 1723, 4500, 80, 53, 0, 55555}
	cands := make([]netip.Addr, 0, len(candidates))
	for a := range candidates {
		cands = append(cands, a)
	}
	b := flowrec.NewBatch(n)
	for i := 0; i < n; i++ {
		src, dst := addr4(rng), addr4(rng)
		// A third of the rows touch a candidate on one side, so the
		// ByDomain branch of the fixup is well exercised.
		if len(cands) > 0 {
			switch rng.Intn(3) {
			case 0:
				src = cands[rng.Intn(len(cands))]
			case 1:
				dst = cands[rng.Intn(len(cands))]
			}
		}
		b.Append(flowrec.Record{
			SrcIP:   src,
			DstIP:   dst,
			SrcPort: ports[rng.Intn(len(ports))],
			DstPort: ports[rng.Intn(len(ports))],
			Proto:   protos[rng.Intn(len(protos))],
			Bytes:   uint64(rng.Intn(1 << 24)),
		})
	}
	return b
}

// TestMethodLanesMatchClassifyAt: the lane scan must agree with the
// per-row classify path on every row, with and without a candidate set.
func TestMethodLanesMatchClassifyAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	candidates := map[netip.Addr]bool{
		addr4(rng): true, addr4(rng): true, addr4(rng): true,
	}
	for _, cs := range []map[netip.Addr]bool{candidates, nil} {
		d := New(cs)
		for _, n := range []int{0, 1, 13, 4096, 4100} {
			b := randomVPNBatch(rng, n, cs)
			lanes := make([]uint8, n)
			d.methodLanes(b, 0, n, lanes)
			for i := 0; i < n; i++ {
				if want := d.ClassifyAt(b, i); Method(lanes[i]) != want {
					t.Fatalf("candidates=%v n=%d row %d: lane %d, want %v", cs != nil, n, i, lanes[i], want)
				}
			}
		}
	}
}

// TestSplitBatchMatchesSplit: the lane-scan SplitBatchSums must equal
// the per-row reference across tile boundaries.
func TestSplitBatchMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	candidates := map[netip.Addr]bool{addr4(rng): true, addr4(rng): true}
	d := New(candidates)
	for _, n := range []int{0, 1, 4095, 4097, 9001} {
		splitMatchesRef(t, d, randomVPNBatch(rng, n, candidates))
	}
}

// TestSplitBatchSumsExact: the integer kernel equals the per-row
// reference, and per-hour partials merge to the same totals as one big
// batch — the associativity the per-day folds rely on.
func TestSplitBatchSumsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	candidates := map[netip.Addr]bool{addr4(rng): true}
	d := New(candidates)
	b := randomVPNBatch(rng, 10000, candidates)
	want := splitMatchesRef(t, d, b)

	// Split the batch at arbitrary points; partial sums must merge exactly.
	var merged [3]uint64
	cuts := []int{0, 137, 4096, 7777, b.Len()}
	for c := 0; c+1 < len(cuts); c++ {
		part := flowrec.NewBatch(0)
		for i := cuts[c]; i < cuts[c+1]; i++ {
			part.Append(b.Record(i))
		}
		d.SplitBatchSums(&merged, part)
	}
	if merged != want {
		t.Fatalf("merged partials = %v, want %v", merged, want)
	}
}

// TestSplitBatchSumsQuick: random small batches, lane path vs the
// per-row reference.
func TestSplitBatchSumsQuick(t *testing.T) {
	d := New(nil)
	f := func(seed int64, n uint8) bool {
		b := randomVPNBatch(rand.New(rand.NewSource(seed)), int(n), nil)
		var got [3]uint64
		d.SplitBatchSums(&got, b)
		return got == splitRef(d, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// benchSplitBatch builds one large batch with a candidate set so every
// classification branch (port lanes, TCP/443 fixup, domain lookup) is
// exercised by both sides of the A/B.
func benchSplitBatch(b *testing.B) (*Detector, *flowrec.Batch) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	candidates := map[netip.Addr]bool{
		addr4(rng): true, addr4(rng): true, addr4(rng): true, addr4(rng): true,
	}
	return New(candidates), randomVPNBatch(rng, 65536, candidates)
}

// BenchmarkVPNSplitKernel is the lane-scan integer kernel the fig11/12
// aggregations run on.
func BenchmarkVPNSplitKernel(bm *testing.B) {
	d, b := benchSplitBatch(bm)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		var sums [3]uint64
		d.SplitBatchSums(&sums, b)
	}
}

// BenchmarkVPNSplitRowBaseline is the scalar per-row path the kernel
// replaced: ClassifyAt on every row, accumulating into the same array.
func BenchmarkVPNSplitRowBaseline(bm *testing.B) {
	d, b := benchSplitBatch(bm)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		splitRef(d, b)
	}
}
