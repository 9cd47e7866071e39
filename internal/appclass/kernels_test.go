package appclass

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lockdown/internal/flowrec"
)

// interestingASNs biases random flows toward values that exercise the
// program's tables: real filter ASNs, neighbours, zero, and values past
// the table bound.
var interestingASNs = []uint32{
	0, 1, 680, 766, 2906, 8075, 13335, 19679, 20940, 20965, 24940,
	30103, 32934, 46489, 64600, 203561, 394406, 394699, 394700, 400000, 4000000000,
}

var interestingPorts = []uint16{
	0, 22, 25, 53, 80, 110, 143, 443, 465, 587, 993, 995, 1194, 1494,
	3074, 3389, 3478, 3480, 3659, 4070, 5222, 5223, 5228, 5938, 8000,
	8080, 8200, 8393, 8801, 17500, 27015, 30000, 50000, 55555, 65535,
}

var interestingProtos = []flowrec.Proto{
	flowrec.ProtoTCP, flowrec.ProtoUDP, flowrec.ProtoICMP,
	flowrec.ProtoGRE, flowrec.ProtoESP, 99,
}

func randomBatch(rng *rand.Rand, n int) *flowrec.Batch {
	b := flowrec.NewBatch(n)
	for i := 0; i < n; i++ {
		b.SrcAS = append(b.SrcAS, interestingASNs[rng.Intn(len(interestingASNs))])
		b.DstAS = append(b.DstAS, interestingASNs[rng.Intn(len(interestingASNs))])
		b.SrcPort = append(b.SrcPort, interestingPorts[rng.Intn(len(interestingPorts))])
		b.DstPort = append(b.DstPort, interestingPorts[rng.Intn(len(interestingPorts))])
		b.Proto = append(b.Proto, interestingProtos[rng.Intn(len(interestingProtos))])
		b.Bytes = append(b.Bytes, uint64(rng.Intn(1<<20)))
		b.Dir = append(b.Dir, flowrec.Direction(rng.Intn(5))) // incl. out-of-range 3,4
	}
	return b
}

// TestProgramMatchesReference: the compiled bitmask program must agree
// with the nested first-match loop on every (srcAS, dstAS, port) input.
func TestProgramMatchesReference(t *testing.T) {
	c := NewDefault(nil)
	f := func(srcAS, dstAS uint32, port uint16, proto uint8, pickSrc, pickDst, pickPort bool) bool {
		// Half the samples snap to interesting values so filter hits are
		// common; the raw halves cover the miss space.
		if pickSrc {
			srcAS = interestingASNs[int(srcAS)%len(interestingASNs)]
		}
		if pickDst {
			dstAS = interestingASNs[int(dstAS)%len(interestingASNs)]
		}
		if pickPort {
			port = interestingPorts[int(port)%len(interestingPorts)]
		}
		sp := flowrec.PortProto{Proto: flowrec.Proto(proto), Port: port}
		return c.classifyIdx(srcAS, dstAS, sp) == c.classifyIdxRef(srcAS, dstAS, sp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestProgramExhaustivePorts sweeps every TCP/UDP port against each
// interesting AS pairing — the full port-table dimension.
func TestProgramExhaustivePorts(t *testing.T) {
	c := NewDefault(nil)
	asPairs := [][2]uint32{
		{0, 0}, {30103, 0}, {0, 30103}, {19679, 394699}, {20940, 24940}, {64600, 766},
	}
	for _, proto := range []flowrec.Proto{flowrec.ProtoTCP, flowrec.ProtoUDP} {
		for port := 0; port < 65536; port++ {
			sp := flowrec.PortProto{Proto: proto, Port: uint16(port)}
			for _, as := range asPairs {
				if got, want := c.classifyIdx(as[0], as[1], sp), c.classifyIdxRef(as[0], as[1], sp); got != want {
					t.Fatalf("proto %d port %d AS %v: program %d, reference %d", proto, port, as, got, want)
				}
			}
		}
	}
}

// TestVolumeKernelsMatchRowPath: the tiled kernel output must equal a
// per-row re-implementation on the nested-filter reference (including
// key-presence semantics for zero-byte rows), across tile boundaries.
func TestVolumeKernelsMatchRowPath(t *testing.T) {
	c := NewDefault(nil)
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 4095, 4096, 4097, 9000} {
		b := randomBatch(rng, n)
		if n > 2 {
			b.Bytes[1] = 0 // zero-volume row must still create its class key
		}

		want := make(map[Class]uint64)
		for i := 0; i < n; i++ {
			k := c.classifyIdxRef(b.SrcAS[i], b.DstAS[i], b.ServerPortAt(i))
			cls := Unclassified
			if k < len(c.order) {
				cls = c.order[k]
			}
			want[cls] += b.Bytes[i]
		}

		got := make(map[Class]uint64)
		c.VolumeByClassInto(got, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: VolumeByClassInto = %v, want %v", n, got, want)
		}
	}
}

// TestEDUCountKernelMatchesRowPath: the paired-scatter EDU counts must
// equal the per-row reference, including nested key presence and
// out-of-range direction bytes.
func TestEDUCountKernelMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 4096, 4097, 8200} {
		eduCountsMatchRef(t, randomBatch(rng, n))
	}
}

// TestEDUCounterSplitsSumToWhole: counting a batch in pieces — Figure 12
// adds a day's 24 hour batches one at a time — gives the count of the
// whole, key presence included, and an empty counter renders no keys.
func TestEDUCounterSplitsSumToWhole(t *testing.T) {
	var empty EDUCounter
	if got := empty.Counts(); len(got) != 0 {
		t.Fatalf("an empty counter has %d classes", len(got))
	}
	rng := rand.New(rand.NewSource(12))
	whole := randomBatch(rng, 10000)
	var c EDUCounter
	for lo, step := 0, 1; lo < whole.Len(); lo, step = lo+step, step*3 {
		hi := min(lo+step, whole.Len())
		c.AddBatch(&flowrec.Batch{
			SrcAS: whole.SrcAS[lo:hi], DstAS: whole.DstAS[lo:hi],
			SrcPort: whole.SrcPort[lo:hi], DstPort: whole.DstPort[lo:hi],
			Proto: whole.Proto[lo:hi], Bytes: whole.Bytes[lo:hi], Dir: whole.Dir[lo:hi],
		})
	}
	if got, want := c.Counts(), CountEDUByClassDirBatch(whole); !reflect.DeepEqual(got, want) {
		t.Errorf("counted in pieces: %v, whole: %v", got, want)
	}
}

// BenchmarkClassVolumeKernel / Ref are the in-package A/B pair: the
// compiled-program tiled kernel against the PR 9 nested-filter row loop,
// over the same batch. benchgate gates the kernel at 0 allocs/op.
func benchVolumeBatch() *flowrec.Batch {
	return randomBatch(rand.New(rand.NewSource(42)), 16384)
}

func BenchmarkClassVolumeKernel(b *testing.B) {
	c := NewDefault(nil)
	batch := benchVolumeBatch()
	sums := make(map[Class]uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.VolumeByClassInto(sums, batch)
	}
}

func BenchmarkClassVolumeRef(b *testing.B) {
	c := NewDefault(nil)
	batch := benchVolumeBatch()
	sums := make(map[Class]uint64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := len(c.order)
		var acc [maxClasses + 1]uint64
		var touched [maxClasses + 1]bool
		for j := 0; j < batch.Len(); j++ {
			k := c.classifyIdxRef(batch.SrcAS[j], batch.DstAS[j], batch.ServerPortAt(j))
			acc[k] += batch.Bytes[j]
			touched[k] = true
		}
		for k := 0; k < n; k++ {
			if touched[k] {
				sums[c.order[k]] += acc[k]
			}
		}
		if touched[n] {
			sums[Unclassified] += acc[n]
		}
	}
}

func BenchmarkEDUCountKernel(b *testing.B) {
	batch := benchVolumeBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountEDUByClassDirBatch(batch)
	}
}
