package ports

import (
	"testing"

	"lockdown/internal/flowrec"
)

func TestLookupKnown(t *testing.T) {
	s, ok := byPort[pp(flowrec.ProtoUDP, 443)]
	if !ok || s.Name != "QUIC" || s.Category != CatQUIC {
		t.Errorf("UDP/443 lookup = %+v, %v", s, ok)
	}
	s, ok = byPort[pp(flowrec.ProtoTCP, 993)]
	if !ok || s.Category != CatEmail {
		t.Errorf("TCP/993 should be email, got %+v", s)
	}
	if _, ok := byPort[pp(flowrec.ProtoTCP, 54321)]; ok {
		t.Error("unknown port should not resolve")
	}
}

func TestName(t *testing.T) {
	if got := Name(pp(flowrec.ProtoUDP, 8801)); got != "Zoom-connector" {
		t.Errorf("Name(UDP/8801) = %q", got)
	}
	if got := Name(pp(flowrec.ProtoTCP, 12345)); got != "TCP/12345" {
		t.Errorf("Name of unknown port = %q", got)
	}
	if got := Name(pp(flowrec.ProtoESP, 0)); got != "ESP" {
		t.Errorf("Name(ESP) = %q", got)
	}
}

func TestCategoryOf(t *testing.T) {
	cases := map[flowrec.PortProto]Category{
		pp(flowrec.ProtoTCP, 443):  CatWeb,
		pp(flowrec.ProtoUDP, 4500): CatVPN,
		pp(flowrec.ProtoGRE, 0):    CatVPN,
		pp(flowrec.ProtoTCP, 22):   CatSSH,
		pp(flowrec.ProtoTCP, 3389): CatRemoteDesk,
		pp(flowrec.ProtoTCP, 5223): CatPush,
		pp(flowrec.ProtoTCP, 4070): CatMusic,
	}
	for p, want := range cases {
		if s := byPort[p]; s.Category != want {
			t.Errorf("%v is categorised as %v, want %v", p, s.Category, want)
		}
	}
}

func TestOfCategorySortedAndComplete(t *testing.T) {
	vpn := OfCategory(CatVPN)
	if len(vpn) < 8 {
		t.Fatalf("expected at least 8 VPN ports, got %d", len(vpn))
	}
	for i := 1; i < len(vpn); i++ {
		if vpn[i-1].Proto > vpn[i].Proto ||
			(vpn[i-1].Proto == vpn[i].Proto && vpn[i-1].Port > vpn[i].Port) {
			t.Fatal("OfCategory output not sorted")
		}
	}
	for _, p := range vpn {
		if s := byPort[p]; s.Category != CatVPN {
			t.Errorf("%v listed as VPN but categorised as %v", p, s.Category)
		}
	}
}

func TestVPNPortsMatchSection6(t *testing.T) {
	want := []flowrec.PortProto{
		pp(flowrec.ProtoUDP, 500), pp(flowrec.ProtoUDP, 4500),
		pp(flowrec.ProtoUDP, 1194), pp(flowrec.ProtoTCP, 1194),
		pp(flowrec.ProtoUDP, 1701), pp(flowrec.ProtoTCP, 1701),
		pp(flowrec.ProtoTCP, 1723), pp(flowrec.ProtoUDP, 1723),
		pp(flowrec.ProtoGRE, 0), pp(flowrec.ProtoESP, 0),
	}
	got := map[flowrec.PortProto]bool{}
	for _, p := range VPNPorts() {
		got[p] = true
	}
	for _, p := range want {
		if !got[p] {
			t.Errorf("VPNPorts missing %v", p)
		}
	}
}

func TestTopPortsListsExcludePlainWeb(t *testing.T) {
	for _, list := range [][]flowrec.PortProto{TopPortsISP(), TopPortsIXP()} {
		if len(list) < 10 {
			t.Errorf("top-port list too short: %d", len(list))
		}
		for _, p := range list {
			if p == pp(flowrec.ProtoTCP, 80) || p == pp(flowrec.ProtoTCP, 443) {
				t.Errorf("top-port list must exclude %v (as in Figure 7)", p)
			}
		}
	}
	// The IXP list contains the conferencing port UDP/3480; the ISP list
	// does not (the paper notes it is absent from the ISP's top 12).
	inIXP, inISP := false, false
	for _, p := range TopPortsIXP() {
		if p == pp(flowrec.ProtoUDP, 3480) {
			inIXP = true
		}
	}
	for _, p := range TopPortsISP() {
		if p == pp(flowrec.ProtoUDP, 3480) {
			inISP = true
		}
	}
	if !inIXP || inISP {
		t.Errorf("UDP/3480 should be in the IXP list only (ixp=%v isp=%v)", inIXP, inISP)
	}
}
