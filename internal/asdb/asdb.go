// Package asdb is the autonomous-system registry the analyses classify
// traffic sources and sinks with. It embeds the 15 hypergiants of "The
// Lockdown Effect" (IMC 2020) (Appendix A, Table 2), a set of well-known content, cloud, conferencing,
// gaming, messaging, social, CDN and educational ASes used by the
// application-class filters (Table 1), and synthetic eyeball and enterprise
// ASes used by the traffic generator.
//
// Each AS owns one or more synthetic IPv4 prefixes so generated flow
// records can be mapped back to their AS with LookupIP, exactly like the
// paper maps flows to ASes using routing data.
package asdb

import (
	"fmt"
	"net/netip"
	"sort"
)

// Category is the functional role of an AS, the granularity at which the
// application-class filters of Table 1 select sources.
type Category string

// AS categories.
const (
	CatEyeball       Category = "eyeball"
	CatContent       Category = "content"
	CatCDN           Category = "cdn"
	CatCloud         Category = "cloud"
	CatVoD           Category = "vod"
	CatSocial        Category = "social"
	CatConferencing  Category = "conferencing"
	CatGaming        Category = "gaming"
	CatMessaging     Category = "messaging"
	CatEducational   Category = "educational"
	CatCollaboration Category = "collaboration"
	CatEnterprise    Category = "enterprise"
	CatHosting       Category = "hosting"
	CatTransit       Category = "transit"
	CatMobile        Category = "mobile"
)

// Region is the coarse geography of an AS, used to model the different
// regional behaviour of the US and European vantage points.
type Region string

// Regions.
const (
	RegionEU    Region = "eu"
	RegionUS    Region = "us"
	RegionOther Region = "other"
)

// AS describes one autonomous system.
type AS struct {
	ASN        uint32
	Org        string
	Category   Category
	Region     Region
	Hypergiant bool
	// prefix index within the synthetic 10.0.0.0/8 space; filled by the
	// registry on construction.
	prefix netip.Prefix
}

// String renders "Org (AS15169)".
func (a AS) String() string { return fmt.Sprintf("%s (AS%d)", a.Org, a.ASN) }

// Registry is an immutable set of ASes with prefix-based IP lookup. Build
// one with Default or NewRegistry.
type Registry struct {
	byASN    map[uint32]AS
	ordered  []AS // sorted by ASN, prefix assignment order
	prefixes []netip.Prefix
	prefixAS []uint32
}

// NewRegistry builds a registry from the given AS descriptions. Each AS is
// assigned a /16 out of 10.0.0.0/8 in input order; at most 256 ASes are
// supported, which is ample for the paper's analyses.
func NewRegistry(list []AS) (*Registry, error) {
	if len(list) > 256 {
		return nil, fmt.Errorf("asdb: too many ASes (%d > 256)", len(list))
	}
	r := &Registry{byASN: make(map[uint32]AS, len(list))}
	for i, a := range list {
		if _, dup := r.byASN[a.ASN]; dup {
			return nil, fmt.Errorf("asdb: duplicate ASN %d", a.ASN)
		}
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		a.prefix = p
		r.byASN[a.ASN] = a
		r.ordered = append(r.ordered, a)
		r.prefixes = append(r.prefixes, p)
		r.prefixAS = append(r.prefixAS, a.ASN)
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].ASN < r.ordered[j].ASN })
	return r, nil
}

// Lookup returns the AS with the given ASN.
func (r *Registry) Lookup(asn uint32) (AS, bool) {
	a, ok := r.byASN[asn]
	return a, ok
}

// LookupIP maps an address to the AS owning its synthetic prefix.
func (r *Registry) LookupIP(addr netip.Addr) (AS, bool) {
	for i, p := range r.prefixes {
		if p.Contains(addr) {
			return r.byASN[r.prefixAS[i]], true
		}
	}
	return AS{}, false
}

// AddrPool mints the endpoint addresses of one AS: the hosts of its
// synthetic /16, whose network address it holds as a big-endian word. The
// traffic generator resolves one per AS it samples from, so minting an
// address costs no registry lookup and, built as one word, one store.
type AddrPool struct{ net uint32 }

// AddrPool returns the address pool of an AS.
func (r *Registry) AddrPool(asn uint32) (AddrPool, bool) {
	a, ok := r.byASN[asn]
	if !ok {
		return AddrPool{}, false
	}
	b := a.prefix.Addr().As4()
	return AddrPool{net: uint32(b[0])<<24 | uint32(b[1])<<16}, true
}

// Addr4 returns the n-th address of the pool (wrapping within the /16 host
// space, skipping the network address) as its four bytes.
func (p AddrPool) Addr4(n uint32) [4]byte {
	a := p.net | (n%65534 + 1)
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// Addr is Addr4 as a netip.Addr.
func (p AddrPool) Addr(n uint32) netip.Addr { return netip.AddrFrom4(p.Addr4(n)) }

// AddrFor returns the n-th address inside the AS's synthetic prefix; see
// AddrPool.Addr.
func (r *Registry) AddrFor(asn uint32, n uint32) (netip.Addr, error) {
	p, ok := r.AddrPool(asn)
	if !ok {
		return netip.Addr{}, fmt.Errorf("asdb: unknown ASN %d", asn)
	}
	return p.Addr(n), nil
}

// All returns every AS sorted by ASN. The slice is shared; do not modify.
func (r *Registry) All() []AS { return r.ordered }

// OfCategory returns all ASes of the given category, sorted by ASN.
func (r *Registry) OfCategory(c Category) []AS {
	var out []AS
	for _, a := range r.ordered {
		if a.Category == c {
			out = append(out, a)
		}
	}
	return out
}

// Hypergiants returns the hypergiant ASes sorted by ASN.
func (r *Registry) Hypergiants() []AS {
	var out []AS
	for _, a := range r.ordered {
		if a.Hypergiant {
			out = append(out, a)
		}
	}
	return out
}

// IsHypergiant reports whether asn belongs to the hypergiant list.
func (r *Registry) IsHypergiant(asn uint32) bool {
	a, ok := r.byASN[asn]
	return ok && a.Hypergiant
}

// hypergiantList is the paper's Appendix A (Table 2).
var hypergiantList = []AS{
	{ASN: 714, Org: "Apple Inc", Category: CatContent, Region: RegionUS, Hypergiant: true},
	{ASN: 16509, Org: "Amazon.com", Category: CatCloud, Region: RegionUS, Hypergiant: true},
	{ASN: 32934, Org: "Facebook", Category: CatSocial, Region: RegionUS, Hypergiant: true},
	{ASN: 15169, Org: "Google Inc.", Category: CatContent, Region: RegionUS, Hypergiant: true},
	{ASN: 20940, Org: "Akamai Technologies", Category: CatCDN, Region: RegionUS, Hypergiant: true},
	{ASN: 10310, Org: "Yahoo!", Category: CatContent, Region: RegionUS, Hypergiant: true},
	{ASN: 2906, Org: "Netflix", Category: CatVoD, Region: RegionUS, Hypergiant: true},
	{ASN: 6939, Org: "Hurricane Electric", Category: CatTransit, Region: RegionUS, Hypergiant: true},
	{ASN: 16276, Org: "OVH", Category: CatHosting, Region: RegionEU, Hypergiant: true},
	{ASN: 22822, Org: "Limelight Networks Global", Category: CatCDN, Region: RegionUS, Hypergiant: true},
	{ASN: 8075, Org: "Microsoft", Category: CatCloud, Region: RegionUS, Hypergiant: true},
	{ASN: 13414, Org: "Twitter, Inc.", Category: CatSocial, Region: RegionUS, Hypergiant: true},
	{ASN: 46489, Org: "Twitch", Category: CatVoD, Region: RegionUS, Hypergiant: true},
	{ASN: 13335, Org: "Cloudflare", Category: CatCDN, Region: RegionUS, Hypergiant: true},
	{ASN: 15133, Org: "Verizon Digital Media Services", Category: CatCDN, Region: RegionUS, Hypergiant: true},
}

// supportingList contains the non-hypergiant ASes used by the
// application-class filters, plus synthetic eyeball, enterprise and
// educational ASes the generator populates vantage points with. Synthetic
// ASNs come from the private-use range 64496-65534.
var supportingList = []AS{
	// Conferencing and collaboration providers.
	{ASN: 30103, Org: "Zoom Video Communications", Category: CatConferencing, Region: RegionUS},
	{ASN: 13445, Org: "Cisco Webex", Category: CatConferencing, Region: RegionUS},
	{ASN: 46652, Org: "RingCentral", Category: CatConferencing, Region: RegionUS},
	{ASN: 19679, Org: "Dropbox", Category: CatCollaboration, Region: RegionUS},
	{ASN: 54113, Org: "Fastly", Category: CatCDN, Region: RegionUS},
	{ASN: 394699, Org: "Slack Technologies", Category: CatCollaboration, Region: RegionUS},
	{ASN: 2635, Org: "Automattic", Category: CatCollaboration, Region: RegionUS},

	// Messaging.
	{ASN: 62041, Org: "Telegram Messenger", Category: CatMessaging, Region: RegionEU},
	{ASN: 59930, Org: "Viber Media", Category: CatMessaging, Region: RegionEU},
	{ASN: 21321, Org: "Signal-like Messenger", Category: CatMessaging, Region: RegionEU},

	// Gaming.
	{ASN: 32590, Org: "Valve (Steam)", Category: CatGaming, Region: RegionUS},
	{ASN: 57976, Org: "Blizzard Entertainment", Category: CatGaming, Region: RegionUS},
	{ASN: 6507, Org: "Riot Games", Category: CatGaming, Region: RegionUS},
	{ASN: 11282, Org: "Nintendo", Category: CatGaming, Region: RegionOther},
	{ASN: 33353, Org: "Sony Interactive Entertainment", Category: CatGaming, Region: RegionOther},

	// Video on demand beyond the hypergiant list.
	{ASN: 40027, Org: "Netflix Streaming Services", Category: CatVoD, Region: RegionUS},
	{ASN: 394406, Org: "Disney Streaming", Category: CatVoD, Region: RegionUS},
	{ASN: 203561, Org: "Regional TV Streaming", Category: CatVoD, Region: RegionEU},

	// Social media.
	{ASN: 54888, Org: "Snap Inc", Category: CatSocial, Region: RegionUS},
	{ASN: 138699, Org: "TikTok (ByteDance)", Category: CatSocial, Region: RegionOther},
	{ASN: 47764, Org: "VK / Mail.ru", Category: CatSocial, Region: RegionEU},

	// Educational and research networks.
	{ASN: 20965, Org: "GEANT", Category: CatEducational, Region: RegionEU},
	{ASN: 680, Org: "DFN (German NREN)", Category: CatEducational, Region: RegionEU},
	{ASN: 766, Org: "RedIRIS (Spanish NREN)", Category: CatEducational, Region: RegionEU},
	{ASN: 11537, Org: "Internet2", Category: CatEducational, Region: RegionUS},
	{ASN: 64600, Org: "Metropolitan EDU network", Category: CatEducational, Region: RegionEU},

	// Email and productivity clouds (non-hypergiant).
	{ASN: 29838, Org: "Mail Provider EU", Category: CatEnterprise, Region: RegionEU},
	{ASN: 8560, Org: "IONOS Hosting", Category: CatHosting, Region: RegionEU},
	{ASN: 24940, Org: "Hetzner Online", Category: CatHosting, Region: RegionEU},
	{ASN: 14061, Org: "DigitalOcean", Category: CatHosting, Region: RegionUS},

	// CDNs beyond hypergiants.
	{ASN: 60068, Org: "CDN77", Category: CatCDN, Region: RegionEU},
	{ASN: 32787, Org: "Edgio/EdgeCast", Category: CatCDN, Region: RegionUS},

	// Eyeball networks (broadband providers of the vantage regions).
	{ASN: 3320, Org: "Deutsche Telekom", Category: CatEyeball, Region: RegionEU},
	{ASN: 3209, Org: "Vodafone DE", Category: CatEyeball, Region: RegionEU},
	{ASN: 6830, Org: "Liberty Global", Category: CatEyeball, Region: RegionEU},
	{ASN: 12956, Org: "Telefonica Global", Category: CatEyeball, Region: RegionEU},
	{ASN: 12479, Org: "Orange Espana", Category: CatEyeball, Region: RegionEU},
	{ASN: 7922, Org: "Comcast", Category: CatEyeball, Region: RegionUS},
	{ASN: 701, Org: "Verizon Broadband", Category: CatEyeball, Region: RegionUS},
	{ASN: 7018, Org: "AT&T", Category: CatEyeball, Region: RegionUS},
	{ASN: 64700, Org: "ISP-CE subscribers", Category: CatEyeball, Region: RegionEU},

	// Mobile operators (Figure 1 vantage points).
	{ASN: 64710, Org: "Mobile operator CE", Category: CatMobile, Region: RegionEU},
	{ASN: 64711, Org: "Roaming IPX", Category: CatMobile, Region: RegionEU},

	// Enterprises with their own AS (remote-work analysis, Section 3.4).
	{ASN: 64801, Org: "Enterprise Alpha", Category: CatEnterprise, Region: RegionEU},
	{ASN: 64802, Org: "Enterprise Beta", Category: CatEnterprise, Region: RegionEU},
	{ASN: 64803, Org: "Enterprise Gamma", Category: CatEnterprise, Region: RegionUS},
	{ASN: 64804, Org: "Enterprise Delta (VPN gateway)", Category: CatEnterprise, Region: RegionEU},
	{ASN: 64805, Org: "Enterprise Epsilon", Category: CatEnterprise, Region: RegionEU},

	// Transit providers.
	{ASN: 3356, Org: "Lumen/Level3", Category: CatTransit, Region: RegionUS},
	{ASN: 1299, Org: "Arelion/Telia", Category: CatTransit, Region: RegionEU},
}

var defaultRegistry *Registry

func init() {
	var all []AS
	all = append(all, hypergiantList...)
	all = append(all, supportingList...)
	r, err := NewRegistry(all)
	if err != nil {
		panic("asdb: building default registry: " + err.Error())
	}
	defaultRegistry = r
}

// Default returns the built-in registry with the paper's hypergiants and
// supporting ASes. The registry is immutable and safe for concurrent use.
func Default() *Registry { return defaultRegistry }
