package flowrec

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func rec() Record {
	return Record{
		Start:   time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC),
		End:     time.Date(2020, 3, 25, 20, 0, 30, 0, time.UTC),
		SrcIP:   netip.MustParseAddr("10.1.2.3"),
		DstIP:   netip.MustParseAddr("192.0.2.7"),
		SrcPort: 51234,
		DstPort: 443,
		Proto:   ProtoTCP,
		Bytes:   15000,
		Packets: 14,
		SrcAS:   64500,
		DstAS:   15169,
		Dir:     DirEgress,
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{
		ProtoTCP:  "TCP",
		ProtoUDP:  "UDP",
		ProtoGRE:  "GRE",
		ProtoESP:  "ESP",
		ProtoICMP: "ICMP",
		Proto(99): "PROTO(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Proto(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if DirIngress.String() != "in" || DirEgress.String() != "out" || DirUnknown.String() != "unknown" {
		t.Errorf("unexpected direction strings: %q %q %q", DirIngress, DirEgress, DirUnknown)
	}
}

func TestServerPort(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Record)
		want PortProto
	}{
		{"client high dst 443", func(r *Record) {}, PortProto{ProtoTCP, 443}},
		{"reversed", func(r *Record) { r.SrcPort, r.DstPort = 443, 51234 }, PortProto{ProtoTCP, 443}},
		{"gre has no port", func(r *Record) { r.Proto = ProtoGRE }, PortProto{Proto: ProtoGRE}},
		{"zero src", func(r *Record) { r.SrcPort = 0; r.DstPort = 8801 }, PortProto{ProtoTCP, 8801}},
		{"zero dst", func(r *Record) { r.SrcPort = 993; r.DstPort = 0 }, PortProto{ProtoTCP, 993}},
	}
	for _, c := range cases {
		r := rec()
		c.mod(&r)
		if got := r.ServerPort(); got != c.want {
			t.Errorf("%s: ServerPort = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPortProtoString(t *testing.T) {
	if got := (PortProto{ProtoUDP, 443}).String(); got != "UDP/443" {
		t.Errorf("PortProto = %q, want UDP/443", got)
	}
	if got := (PortProto{Proto: ProtoESP}).String(); got != "ESP" {
		t.Errorf("PortProto = %q, want ESP", got)
	}
}

func TestValidate(t *testing.T) {
	r := rec()
	if err := r.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := rec()
	bad.SrcIP = netip.Addr{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid src address accepted")
	}
	bad = rec()
	bad.End = bad.Start.Add(-time.Minute)
	if err := bad.Validate(); err == nil {
		t.Error("reversed interval accepted")
	}
	bad = rec()
	bad.Bytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("packets without bytes accepted")
	}
	bad = rec()
	bad.Packets = 0
	if err := bad.Validate(); err == nil {
		t.Error("bytes without packets accepted")
	}
}

// Property: ServerPort always returns one of the record's two ports (or a
// port-less pair for tunnelling protocols).
func TestServerPortMembershipQuick(t *testing.T) {
	f := func(sp, dp uint16, tcp bool) bool {
		p := ProtoUDP
		if tcp {
			p = ProtoTCP
		}
		r := rec()
		r.Proto = p
		r.SrcPort, r.DstPort = sp, dp
		got := r.ServerPort()
		return got.Proto == p && (got.Port == sp || got.Port == dp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
