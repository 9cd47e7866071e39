package vpndetect

import (
	"net/netip"
	"testing"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/dnsdb"
	"lockdown/internal/flowrec"
)

func rec(proto flowrec.Proto, serverPort uint16, src, dst string) flowrec.Record {
	return flowrec.Record{
		Start:   time.Date(2020, 3, 25, 10, 0, 0, 0, time.UTC),
		End:     time.Date(2020, 3, 25, 10, 5, 0, 0, time.UTC),
		SrcIP:   netip.MustParseAddr(src),
		DstIP:   netip.MustParseAddr(dst),
		Proto:   proto,
		SrcPort: serverPort,
		DstPort: 51000,
		Bytes:   5000,
		Packets: 5,
	}
}

func TestPortBasedDetection(t *testing.T) {
	d := New(nil)
	cases := []struct {
		r    flowrec.Record
		want Method
	}{
		{rec(flowrec.ProtoUDP, 4500, "10.1.0.1", "10.2.0.1"), ByPort},
		{rec(flowrec.ProtoUDP, 1194, "10.1.0.1", "10.2.0.1"), ByPort},
		{rec(flowrec.ProtoTCP, 1723, "10.1.0.1", "10.2.0.1"), ByPort},
		{rec(flowrec.ProtoGRE, 0, "10.1.0.1", "10.2.0.1"), ByPort},
		{rec(flowrec.ProtoESP, 0, "10.1.0.1", "10.2.0.1"), ByPort},
		{rec(flowrec.ProtoTCP, 443, "10.1.0.1", "10.2.0.1"), NotVPN},
		{rec(flowrec.ProtoUDP, 443, "10.1.0.1", "10.2.0.1"), NotVPN},
		{rec(flowrec.ProtoTCP, 22, "10.1.0.1", "10.2.0.1"), NotVPN},
	}
	recs := make([]flowrec.Record, len(cases))
	for i, c := range cases {
		recs[i] = c.r
	}
	b := flowrec.FromRecords(recs)
	for i, c := range cases {
		if got := d.ClassifyAt(b, i); got != c.want {
			t.Errorf("case %d: ClassifyAt = %v, want %v", i, got, c.want)
		}
	}
	splitMatchesRef(t, d, b)
}

func TestDomainBasedDetection(t *testing.T) {
	gw := netip.MustParseAddr("10.44.0.10")
	d := New(map[netip.Addr]bool{gw: true})
	// HTTPS to the candidate: domain-detected.
	if got := classifyRecord(d, rec(flowrec.ProtoTCP, 443, gw.String(), "10.2.0.1")); got != ByDomain {
		t.Errorf("HTTPS to gateway = %v, want ByDomain", got)
	}
	// Candidate as destination works too.
	if got := classifyRecord(d, rec(flowrec.ProtoTCP, 443, "10.2.0.1", gw.String())); got != ByDomain {
		t.Errorf("HTTPS from client to gateway = %v, want ByDomain", got)
	}
	// Non-443 traffic to the candidate is not counted by the domain
	// method (it would be caught by the port method if on a VPN port).
	if got := classifyRecord(d, rec(flowrec.ProtoTCP, 8080, gw.String(), "10.2.0.1")); got != NotVPN {
		t.Errorf("non-443 to gateway = %v, want NotVPN", got)
	}
	// Port detection still takes precedence.
	if got := classifyRecord(d, rec(flowrec.ProtoUDP, 4500, gw.String(), "10.2.0.1")); got != ByPort {
		t.Errorf("IPsec to gateway = %v, want ByPort", got)
	}
	// QUIC (UDP/443) is not HTTPS for the domain method.
	if got := classifyRecord(d, rec(flowrec.ProtoUDP, 443, gw.String(), "10.2.0.1")); got != NotVPN {
		t.Errorf("QUIC to gateway = %v, want NotVPN", got)
	}
}

func TestNewFromCorpus(t *testing.T) {
	reg := asdb.Default()
	corpus, truth := dnsdb.Generate(reg, dnsdb.DefaultGenerateOptions())
	d := NewFromCorpus(corpus)
	if d.Candidates() == 0 {
		t.Fatal("no candidates derived from the corpus")
	}
	hits := 0
	for _, gw := range truth {
		if classifyRecord(d, rec(flowrec.ProtoTCP, 443, gw.String(), "10.2.0.1")) == ByDomain {
			hits++
		}
	}
	if hits != len(truth) {
		t.Errorf("only %d of %d true gateways detected", hits, len(truth))
	}
}

func TestSplit(t *testing.T) {
	gw := netip.MustParseAddr("10.44.0.10")
	d := New(map[netip.Addr]bool{gw: true})
	b := flowrec.FromRecords([]flowrec.Record{
		rec(flowrec.ProtoUDP, 4500, "10.1.0.1", "10.2.0.1"), // port
		rec(flowrec.ProtoTCP, 443, gw.String(), "10.2.0.1"), // domain
		rec(flowrec.ProtoTCP, 443, "10.1.0.1", "10.2.0.1"),  // plain https
		rec(flowrec.ProtoTCP, 8080, "10.1.0.1", "10.2.0.1"), // other
	})
	split := splitMatchesRef(t, d, b)
	if split[ByPort] != 5000 || split[ByDomain] != 5000 || split[NotVPN] != 10000 {
		t.Errorf("SplitBatchSums = %v", split)
	}
}

func TestMethodString(t *testing.T) {
	if ByPort.String() != "port" || ByDomain.String() != "domain" || NotVPN.String() != "none" {
		t.Error("Method strings unexpected")
	}
}
