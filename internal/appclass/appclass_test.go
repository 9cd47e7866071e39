package appclass

import (
	"net/netip"
	"testing"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/flowrec"
)

func record(srcAS, dstAS uint32, proto flowrec.Proto, serverPort uint16) flowrec.Record {
	return flowrec.Record{
		Start:   time.Date(2020, 3, 25, 11, 0, 0, 0, time.UTC),
		End:     time.Date(2020, 3, 25, 11, 5, 0, 0, time.UTC),
		SrcIP:   netip.MustParseAddr("10.0.0.1"),
		DstIP:   netip.MustParseAddr("10.1.0.1"),
		SrcAS:   srcAS,
		DstAS:   dstAS,
		Proto:   proto,
		SrcPort: serverPort,
		DstPort: 51515,
		Bytes:   1000,
		Packets: 2,
	}
}

func TestClassifyTable1Classes(t *testing.T) {
	c := NewDefault(nil)
	cases := []struct {
		name string
		rec  flowrec.Record
		want Class
	}{
		{"zoom connector", record(30103, 64700, flowrec.ProtoUDP, 8801), WebConf},
		{"teams stun", record(8075, 64700, flowrec.ProtoUDP, 3480), WebConf},
		{"stun without provider", record(64700, 64801, flowrec.ProtoUDP, 3478), WebConf},
		{"netflix", record(2906, 64700, flowrec.ProtoTCP, 443), VoD},
		{"twitch", record(46489, 64700, flowrec.ProtoTCP, 443), VoD},
		{"tv streaming 8200", record(203561, 64700, flowrec.ProtoTCP, 8200), VoD},
		{"steam", record(32590, 64700, flowrec.ProtoUDP, 27015), Gaming},
		{"xbox port only", record(24940, 64700, flowrec.ProtoUDP, 3074), Gaming},
		{"facebook", record(32934, 64700, flowrec.ProtoTCP, 443), SocialMedia},
		{"tiktok", record(138699, 64700, flowrec.ProtoTCP, 443), SocialMedia},
		{"telegram", record(62041, 64700, flowrec.ProtoTCP, 443), Messaging},
		{"imaps", record(29838, 64700, flowrec.ProtoTCP, 993), Email},
		{"geant", record(20965, 64700, flowrec.ProtoTCP, 443), Educational},
		{"dropbox", record(19679, 64700, flowrec.ProtoTCP, 443), Collaborative},
		{"akamai", record(20940, 64700, flowrec.ProtoTCP, 443), CDN},
		{"cloudflare", record(13335, 64700, flowrec.ProtoTCP, 443), CDN},
		{"plain hosting web", record(24940, 64700, flowrec.ProtoTCP, 443), Unclassified},
		{"quic google", record(15169, 64700, flowrec.ProtoUDP, 443), Unclassified},
	}
	recs := make([]flowrec.Record, len(cases))
	for i, tc := range cases {
		recs[i] = tc.rec
	}
	b := flowrec.FromRecords(recs)
	for i, tc := range cases {
		if got := c.ClassifyAt(b, i); got != tc.want {
			t.Errorf("%s: ClassifyAt = %q, want %q", tc.name, got, tc.want)
		}
	}
	volumesMatchRef(t, c, b)
}

func TestSpecificClassesWinOverCDN(t *testing.T) {
	c := NewDefault(nil)
	// Microsoft Teams traffic must not be swallowed by a broad filter
	// even though AS8075 also appears in cloud/CDN-like roles.
	b := flowrec.FromRecords([]flowrec.Record{record(8075, 64700, flowrec.ProtoUDP, 3480)})
	if got := c.ClassifyAt(b, 0); got != WebConf {
		t.Errorf("Teams STUN classified as %q, want %q", got, WebConf)
	}
}

func TestClassifyDirectionAgnostic(t *testing.T) {
	c := NewDefault(nil)
	// The provider AS may appear as destination (upstream direction).
	b := flowrec.FromRecords([]flowrec.Record{record(64700, 2906, flowrec.ProtoTCP, 443)})
	if got := c.ClassifyAt(b, 0); got != VoD {
		t.Errorf("reverse-direction Netflix flow classified as %q, want VoD", got)
	}
}

func TestInventoryMatchesTable1Shape(t *testing.T) {
	c := NewDefault(asdb.Default())
	rows := c.Inventory()
	if len(rows) != 9 {
		t.Fatalf("inventory has %d rows, want 9", len(rows))
	}
	byClass := make(map[Class]InventoryRow)
	for _, r := range rows {
		byClass[r.Class] = r
		if r.Filters == 0 {
			t.Errorf("%s: no filters", r.Class)
		}
	}
	// Table 1 shapes: email is port-only (no ASNs), VoD and CDN are
	// AS-only (no ports), gaming uses many ports.
	if byClass[Email].DistinctASNs != 0 || byClass[Email].DistinctPorts < 5 {
		t.Errorf("email row unexpected: %+v", byClass[Email])
	}
	if byClass[VoD].DistinctPorts > 1 {
		t.Errorf("VoD should be (almost) port-free: %+v", byClass[VoD])
	}
	if byClass[CDN].DistinctPorts != 0 || byClass[CDN].DistinctASNs < 5 {
		t.Errorf("CDN row unexpected: %+v", byClass[CDN])
	}
	if byClass[Gaming].DistinctPorts < 6 || byClass[Gaming].DistinctASNs < 5 {
		t.Errorf("gaming row unexpected: %+v", byClass[Gaming])
	}
	if byClass[WebConf].DistinctASNs < 3 {
		t.Errorf("web conf row unexpected: %+v", byClass[WebConf])
	}
}

func TestVolumeByClass(t *testing.T) {
	c := NewDefault(nil)
	b := flowrec.FromRecords([]flowrec.Record{
		record(2906, 64700, flowrec.ProtoTCP, 443),
		record(2906, 64700, flowrec.ProtoTCP, 443),
		record(32934, 64700, flowrec.ProtoTCP, 443),
	})
	v := volumesMatchRef(t, c, b)
	if v[VoD] != 2000 || v[SocialMedia] != 1000 || len(v) != 2 {
		t.Errorf("VolumeByClassInto = %v", v)
	}
}

func TestAllClassesAndClasses(t *testing.T) {
	if len(AllClasses()) != 9 {
		t.Errorf("AllClasses returned %d entries", len(AllClasses()))
	}
	c := NewDefault(nil)
	if len(c.order) != 9 {
		t.Errorf("the classifier evaluates %d classes", len(c.order))
	}
	if len(c.filters[Gaming]) == 0 {
		t.Error("no gaming filters")
	}
}

func TestClassifyEDU(t *testing.T) {
	cases := []struct {
		rec  flowrec.Record
		want EDUClass
	}{
		{record(3320, 64600, flowrec.ProtoTCP, 443), EDUWeb},
		{record(3320, 64600, flowrec.ProtoUDP, 443), EDUQUIC},
		{record(64600, 714, flowrec.ProtoTCP, 5223), EDUPush},
		{record(3320, 64600, flowrec.ProtoTCP, 993), EDUEmail},
		{record(3320, 64600, flowrec.ProtoUDP, 4500), EDUVPN},
		{record(3320, 64600, flowrec.ProtoTCP, 22), EDUSSH},
		{record(3320, 64600, flowrec.ProtoTCP, 3389), EDURemoteDesktop},
		{record(64600, 24940, flowrec.ProtoTCP, 4070), EDUSpotify},
		{record(64600, 24940, flowrec.ProtoTCP, 443), EDUWeb},
		{record(3320, 64600, flowrec.ProtoTCP, 12345), EDUOther},
		// GRE/ESP tunnelled traffic counts as VPN.
		{record(3320, 64600, flowrec.ProtoGRE, 0), EDUVPN},
	}
	recs := make([]flowrec.Record, len(cases))
	for i, tc := range cases {
		recs[i] = tc.rec
	}
	b := flowrec.FromRecords(recs)
	for i, tc := range cases {
		if got := ClassifyEDUAt(b, i); got != tc.want {
			t.Errorf("case %d: ClassifyEDUAt = %q, want %q", i, got, tc.want)
		}
	}
	eduCountsMatchRef(t, b)
	if len(AllEDUClasses()) != 8 {
		t.Errorf("AllEDUClasses returned %d entries", len(AllEDUClasses()))
	}
}

func TestCountEDUByClassDir(t *testing.T) {
	in := record(3320, 64600, flowrec.ProtoTCP, 443)
	in.Dir = flowrec.DirIngress
	out := record(64600, 3320, flowrec.ProtoTCP, 443)
	out.Dir = flowrec.DirEgress
	counts := eduCountsMatchRef(t, flowrec.FromRecords([]flowrec.Record{in, in, out}))
	if counts[EDUWeb][flowrec.DirIngress] != 2 || counts[EDUWeb][flowrec.DirEgress] != 1 || len(counts) != 1 {
		t.Errorf("CountEDUByClassDirBatch = %v", counts)
	}
}

// benchBatch builds a mixed batch that exercises every classification
// path: provider ASes, port-only classes and unclassified rows.
func benchBatch(rows int) *flowrec.Batch {
	b := flowrec.NewBatch(rows)
	asns := []uint32{30103, 2906, 32590, 32934, 62041, 20940, 64512, 64513}
	ports := []uint16{443, 80, 8801, 3074, 25, 993, 5222, 12345, 54321}
	for i := 0; i < rows; i++ {
		b.Append(flowrec.Record{
			SrcAS:   asns[i%len(asns)],
			DstAS:   asns[(i*3+1)%len(asns)],
			SrcPort: ports[i%len(ports)],
			DstPort: ports[(i*7+2)%len(ports)],
			Proto:   flowrec.ProtoTCP,
			Bytes:   uint64(1000 + i),
			Packets: 1,
		})
	}
	return b
}

func BenchmarkVolumeByClassInto(bm *testing.B) {
	c := NewDefault(nil)
	b := benchBatch(4096)
	sums := make(map[Class]uint64)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		c.VolumeByClassInto(sums, b)
	}
}

// BenchmarkVolumeByClassIntoMapBaseline is the per-row reference the
// kernel replaced: one ClassifyAt and one map write per row.
func BenchmarkVolumeByClassIntoMapBaseline(bm *testing.B) {
	c := NewDefault(nil)
	b := benchBatch(4096)
	sums := make(map[Class]uint64)
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		volumeByClassRef(c, sums, b)
	}
}

// TestVolumeByClassIntoMatchesMapBaseline pins the array-accumulator
// scan to the per-row map writes, including the key-presence semantics
// and multi-batch accumulation.
func TestVolumeByClassIntoMatchesMapBaseline(t *testing.T) {
	volumesMatchRef(t, NewDefault(nil), benchBatch(513), benchBatch(257))
}
