package asdb

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestDefaultHypergiantsMatchAppendixA(t *testing.T) {
	r := Default()
	hg := r.Hypergiants()
	if len(hg) != 15 {
		t.Fatalf("expected 15 hypergiants (Table 2), got %d", len(hg))
	}
	want := []uint32{714, 16509, 32934, 15169, 20940, 10310, 2906, 6939, 16276, 22822, 8075, 13414, 46489, 13335, 15133}
	for _, asn := range want {
		if !r.IsHypergiant(asn) {
			t.Errorf("AS%d should be a hypergiant", asn)
		}
	}
	if r.IsHypergiant(3320) {
		t.Error("Deutsche Telekom is not a hypergiant")
	}
	if r.IsHypergiant(999999) {
		t.Error("unknown ASN reported as hypergiant")
	}
}

func TestLookup(t *testing.T) {
	r := Default()
	a, ok := r.Lookup(15169)
	if !ok || a.Org != "Google Inc." || !a.Hypergiant {
		t.Errorf("Lookup(15169) = %+v, %v", a, ok)
	}
	if _, ok := r.Lookup(4242424242); ok {
		t.Error("unknown ASN resolved")
	}
}

func TestPrefixAssignmentDisjoint(t *testing.T) {
	r := Default()
	seen := map[netip.Prefix]uint32{}
	for _, a := range r.All() {
		p := a.prefix
		if !p.IsValid() {
			t.Fatalf("AS%d has no prefix", a.ASN)
		}
		if other, dup := seen[p]; dup {
			t.Fatalf("prefix %v assigned to both AS%d and AS%d", p, other, a.ASN)
		}
		seen[p] = a.ASN
		if p.Bits() != 16 {
			t.Errorf("AS%d prefix %v is not a /16", a.ASN, p)
		}
	}
}

func TestAddrForAndLookupIPRoundTrip(t *testing.T) {
	r := Default()
	for _, asn := range []uint32{15169, 2906, 3320, 64700, 64801} {
		addr, err := r.AddrFor(asn, 42)
		if err != nil {
			t.Fatalf("AddrFor(%d): %v", asn, err)
		}
		back, ok := r.LookupIP(addr)
		if !ok || back.ASN != asn {
			t.Errorf("LookupIP(AddrFor(%d)) = %v, %v", asn, back.ASN, ok)
		}
	}
	if _, err := r.AddrFor(4242424242, 1); err == nil {
		t.Error("AddrFor of unknown ASN should fail")
	}
	if _, ok := r.LookupIP(netip.MustParseAddr("203.0.113.5")); ok {
		t.Error("address outside the synthetic space should not resolve")
	}
}

func TestAddrForAvoidsNetworkAddress(t *testing.T) {
	r := Default()
	a, err := r.AddrFor(15169, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw := a.As4()
	if raw[2] == 0 && raw[3] == 0 {
		t.Error("AddrFor(_, 0) must not return the network address")
	}
}

func TestOfCategoryAndEyeballs(t *testing.T) {
	r := Default()
	if got := len(r.OfCategory(CatEyeball)); got < 5 {
		t.Errorf("expected several eyeball ASes, got %d", got)
	}
	for _, a := range r.OfCategory(CatGaming) {
		if a.Category != CatGaming {
			t.Errorf("OfCategory returned %v for gaming", a.Category)
		}
	}
	if len(r.OfCategory(CatEducational)) < 3 {
		t.Error("expected at least 3 educational ASes")
	}
	if len(r.OfCategory(Category("nonexistent"))) != 0 {
		t.Error("unknown category should return nothing")
	}
}

func TestAllSortedByASN(t *testing.T) {
	all := Default().All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ASN >= all[i].ASN {
			t.Fatal("All() not strictly sorted by ASN")
		}
	}
	if len(all) != len(Default().ordered) {
		t.Error("All() misses registered ASes")
	}
}

func TestNewRegistryRejectsDuplicates(t *testing.T) {
	_, err := NewRegistry([]AS{{ASN: 1, Org: "a"}, {ASN: 1, Org: "b"}})
	if err == nil {
		t.Error("duplicate ASN accepted")
	}
}

func TestNewRegistryRejectsTooMany(t *testing.T) {
	list := make([]AS, 257)
	for i := range list {
		list[i] = AS{ASN: uint32(i + 1), Org: "x"}
	}
	if _, err := NewRegistry(list); err == nil {
		t.Error("oversized registry accepted")
	}
}

func TestASString(t *testing.T) {
	a, _ := Default().Lookup(2906)
	if got := a.String(); got != "Netflix (AS2906)" {
		t.Errorf("String = %q", got)
	}
}

// Property: every address minted by AddrFor maps back to the same AS.
func TestAddrForRoundTripQuick(t *testing.T) {
	r := Default()
	asns := make([]uint32, 0, len(r.ordered))
	for _, a := range r.All() {
		asns = append(asns, a.ASN)
	}
	f := func(pick uint16, n uint32) bool {
		asn := asns[int(pick)%len(asns)]
		addr, err := r.AddrFor(asn, n)
		if err != nil {
			return false
		}
		back, ok := r.LookupIP(addr)
		return ok && back.ASN == asn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
