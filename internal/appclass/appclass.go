// Package appclass implements the application-class traffic classification
// of Section 5 (Table 1) of "The Lockdown Effect" (IMC 2020) and the EDU
// traffic classes of its Appendix B.
//
// Classification works exactly as in the paper: each class is defined by a
// set of filters, where a filter matches on the source/destination AS, on
// the transport port, or on a combination of both. A flow record is
// attributed to the first class whose filters match ("hiding" web-based
// applications such as conferencing inside TCP/443 are pulled out of the
// generic web class by their AS).
package appclass

import (
	"lockdown/internal/asdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/simd"
)

// Class is one of the paper's application classes (Table 1).
type Class string

// The nine application classes of Table 1, plus Unclassified for traffic
// no filter matches.
const (
	WebConf       Class = "Web conf"
	VoD           Class = "VoD"
	Gaming        Class = "gaming"
	SocialMedia   Class = "social media"
	Messaging     Class = "messaging"
	Email         Class = "email"
	Educational   Class = "educational"
	Collaborative Class = "coll. working"
	CDN           Class = "CDN"
	Unclassified  Class = "unclassified"
)

// AllClasses lists the nine classes in the row order of Figure 9's
// heatmaps.
func AllClasses() []Class {
	return []Class{CDN, Collaborative, Educational, Email, Messaging, SocialMedia, Gaming, VoD, WebConf}
}

// maxClasses bounds the evaluation-order length so the batch scan loops
// can accumulate into fixed-size stack arrays (9 classes today; headroom
// for a few more). NewDefault panics if the order outgrows it.
const maxClasses = 15

// Filter is one matching rule: a flow matches if it involves one of the
// filter's ASes (when given) and uses one of the filter's ports (when
// given). A filter with both criteria requires both.
type Filter struct {
	// Name documents the provider or protocol the filter captures.
	Name string
	// ASNs match either endpoint's AS (content providers appear as
	// source at the ISP and as either side at the IXPs).
	ASNs []uint32
	// Ports match the flow's server-side port.
	Ports []flowrec.PortProto
}

// matches reports whether a flow with the given AS endpoints and
// service-side port satisfies the filter. Classification depends on
// nothing else, which is what lets the batch path scan three columns
// instead of materialising records.
func (f Filter) matches(srcAS, dstAS uint32, sp flowrec.PortProto) bool {
	if len(f.ASNs) > 0 {
		found := false
		for _, asn := range f.ASNs {
			if srcAS == asn || dstAS == asn {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(f.Ports) > 0 {
		found := false
		for _, p := range f.Ports {
			if p == sp {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return len(f.ASNs) > 0 || len(f.Ports) > 0
}

// Classifier attributes flow records to application classes.
type Classifier struct {
	order   []Class
	filters map[Class][]Filter
	// ordFilters holds the filter lists aligned with order, precomputed
	// so the batch scan loops index a slice instead of hashing a map key
	// per row per class.
	ordFilters [][]Filter
	// prog is the filter inventory compiled to the bitmask evaluator in
	// kernels.go; classifyIdx and the batch scans run on it, with the
	// nested-loop classifyIdxRef kept as the semantic reference.
	prog *program
}

func tcp(p uint16) flowrec.PortProto { return flowrec.PortProto{Proto: flowrec.ProtoTCP, Port: p} }
func udp(p uint16) flowrec.PortProto { return flowrec.PortProto{Proto: flowrec.ProtoUDP, Port: p} }

// NewDefault builds the classifier with the filter inventory of Table 1,
// resolving provider ASes against the given registry (pass nil for the
// built-in registry).
func NewDefault(reg *asdb.Registry) *Classifier {
	if reg == nil {
		reg = asdb.Default()
	}
	asnsOf := func(cat asdb.Category) []uint32 {
		var out []uint32
		for _, a := range reg.OfCategory(cat) {
			out = append(out, a.ASN)
		}
		return out
	}

	gamingPorts := []flowrec.PortProto{
		udp(3074), tcp(3074), udp(3659), udp(27015), tcp(27015), udp(30000), udp(8393), udp(5222), tcp(5222),
	}
	emailPorts := []flowrec.PortProto{tcp(25), tcp(110), tcp(143), tcp(465), tcp(587), tcp(993), tcp(995)}
	confPorts := []flowrec.PortProto{udp(3480), udp(8801), udp(3478), udp(50000)}
	collabPorts := []flowrec.PortProto{tcp(443), tcp(80)}
	messagingPorts := []flowrec.PortProto{tcp(443), tcp(5222), tcp(5223)}

	c := &Classifier{
		// Specific, provider-bound classes are evaluated before broad
		// port-only classes so that e.g. conferencing inside TCP/443 is
		// not swallowed by CDN or web filters.
		order:   []Class{WebConf, Collaborative, Messaging, Gaming, VoD, SocialMedia, Educational, Email, CDN},
		filters: make(map[Class][]Filter),
	}

	c.filters[WebConf] = []Filter{
		{Name: "Zoom", ASNs: []uint32{30103}, Ports: []flowrec.PortProto{udp(8801), tcp(443), udp(3478)}},
		{Name: "Teams/Skype STUN", ASNs: []uint32{8075}, Ports: []flowrec.PortProto{udp(3480), udp(3478)}},
		{Name: "Webex", ASNs: []uint32{13445}, Ports: []flowrec.PortProto{tcp(443), udp(3478)}},
		{Name: "RingCentral", ASNs: []uint32{46652}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Conferencing media ports", Ports: confPorts},
		{Name: "Zoom connector", Ports: []flowrec.PortProto{udp(8801)}},
		{Name: "Teams STUN", Ports: []flowrec.PortProto{udp(3480)}},
	}
	c.filters[VoD] = []Filter{
		{Name: "Netflix", ASNs: []uint32{2906, 40027}},
		{Name: "Twitch", ASNs: []uint32{46489}},
		{Name: "Disney streaming", ASNs: []uint32{394406}},
		{Name: "Regional TV streaming", ASNs: []uint32{203561}},
		{Name: "TV streaming port", ASNs: []uint32{203561}, Ports: []flowrec.PortProto{tcp(8200)}},
	}
	c.filters[Gaming] = []Filter{
		{Name: "Valve/Steam", ASNs: []uint32{32590}, Ports: gamingPorts},
		{Name: "Blizzard", ASNs: []uint32{57976}, Ports: gamingPorts},
		{Name: "Riot Games", ASNs: []uint32{6507}, Ports: gamingPorts},
		{Name: "Nintendo", ASNs: []uint32{11282}, Ports: gamingPorts},
		{Name: "Sony PSN", ASNs: []uint32{33353}, Ports: gamingPorts},
		{Name: "Gaming providers any port", ASNs: asnsOf(asdb.CatGaming)},
		{Name: "Console/game ports", Ports: gamingPorts[:6]},
		{Name: "Cloud gaming", Ports: []flowrec.PortProto{udp(30000)}},
	}
	c.filters[SocialMedia] = []Filter{
		{Name: "Facebook", ASNs: []uint32{32934}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Twitter", ASNs: []uint32{13414}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Snap", ASNs: []uint32{54888}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "TikTok / VK", ASNs: []uint32{138699, 47764}, Ports: []flowrec.PortProto{tcp(443)}},
	}
	c.filters[Messaging] = []Filter{
		{Name: "Telegram", ASNs: []uint32{62041}, Ports: messagingPorts},
		{Name: "Viber", ASNs: []uint32{59930}, Ports: messagingPorts},
		{Name: "Other messengers", ASNs: []uint32{21321}, Ports: messagingPorts},
	}
	c.filters[Email] = []Filter{
		{Name: "Mail protocols", Ports: emailPorts},
	}
	c.filters[Educational] = []Filter{
		{Name: "GEANT", ASNs: []uint32{20965}},
		{Name: "DFN", ASNs: []uint32{680}},
		{Name: "RedIRIS", ASNs: []uint32{766}},
		{Name: "Internet2", ASNs: []uint32{11537}},
		{Name: "Metropolitan EDU", ASNs: []uint32{64600}},
		{Name: "Other NRENs", ASNs: asnsOf(asdb.CatEducational)},
		{Name: "Campus web", ASNs: []uint32{64600}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Campus alt web", ASNs: []uint32{766}, Ports: []flowrec.PortProto{tcp(80)}},
		{Name: "Campus QUIC", ASNs: []uint32{64600}, Ports: []flowrec.PortProto{udp(443)}},
	}
	c.filters[Collaborative] = []Filter{
		{Name: "Dropbox", ASNs: []uint32{19679}, Ports: collabPorts},
		{Name: "Slack", ASNs: []uint32{394699}, Ports: collabPorts},
		{Name: "Automattic", ASNs: []uint32{2635}, Ports: collabPorts},
		{Name: "Dropbox LAN sync", ASNs: []uint32{19679}, Ports: []flowrec.PortProto{tcp(17500)}},
		{Name: "Collaboration suites", ASNs: []uint32{19679, 394699}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Whiteboarding", ASNs: []uint32{394699}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "File sync", ASNs: []uint32{19679}, Ports: []flowrec.PortProto{tcp(443)}},
		{Name: "Wiki hosting", ASNs: []uint32{2635}, Ports: []flowrec.PortProto{tcp(443)}},
	}
	c.filters[CDN] = []Filter{
		{Name: "Akamai", ASNs: []uint32{20940}},
		{Name: "Cloudflare", ASNs: []uint32{13335}},
		{Name: "Fastly", ASNs: []uint32{54113}},
		{Name: "Limelight", ASNs: []uint32{22822}},
		{Name: "Verizon Digital Media", ASNs: []uint32{15133}},
		{Name: "CDN77", ASNs: []uint32{60068}},
		{Name: "Edgio", ASNs: []uint32{32787}},
		{Name: "Other CDNs", ASNs: asnsOf(asdb.CatCDN)},
	}
	if len(c.order) > maxClasses {
		panic("appclass: evaluation order exceeds maxClasses; grow the accumulator bound")
	}
	c.ordFilters = make([][]Filter, len(c.order))
	for k, cls := range c.order {
		c.ordFilters[k] = c.filters[cls]
	}
	c.prog = compileProgram(c.order, c.ordFilters)
	return c
}

// classifyIdx attributes one flow, given the three values classification
// depends on, and returns the matched class's index in evaluation order —
// len(order) for unclassified. It runs on the compiled bitmask program;
// classifyIdxRef below is the nested first-match loop it replaced, kept
// as the semantic reference for the equivalence tests and the in-package
// A/B benchmark.
func (c *Classifier) classifyIdx(srcAS, dstAS uint32, sp flowrec.PortProto) int {
	return int(c.prog.laneOf(srcAS, dstAS, sp))
}

// classifyIdxRef is the pre-kernel classifier: scan the filters in
// evaluation order, return the first match.
func (c *Classifier) classifyIdxRef(srcAS, dstAS uint32, sp flowrec.PortProto) int {
	for k, fs := range c.ordFilters {
		for _, f := range fs {
			if f.matches(srcAS, dstAS, sp) {
				return k
			}
		}
	}
	return len(c.ordFilters)
}

// ClassifyAt returns the application class of batch row i, reading only
// the AS and port columns.
func (c *Classifier) ClassifyAt(b *flowrec.Batch, i int) Class {
	if k := c.classifyIdx(b.SrcAS[i], b.DstAS[i], b.ServerPortAt(i)); k < len(c.order) {
		return c.order[k]
	}
	return Unclassified
}

// InventoryRow summarises one class's filters as reported in Table 1.
type InventoryRow struct {
	Class         Class
	Filters       int
	DistinctASNs  int
	DistinctPorts int
}

// Inventory reproduces Table 1: per class, the number of filters, distinct
// ASNs and distinct transport ports used.
func (c *Classifier) Inventory() []InventoryRow {
	rows := make([]InventoryRow, 0, len(c.order))
	for _, cls := range []Class{WebConf, VoD, Gaming, SocialMedia, Messaging, Email, Educational, Collaborative, CDN} {
		asns := make(map[uint32]bool)
		ports := make(map[flowrec.PortProto]bool)
		for _, f := range c.filters[cls] {
			for _, a := range f.ASNs {
				asns[a] = true
			}
			for _, p := range f.Ports {
				ports[p] = true
			}
		}
		rows = append(rows, InventoryRow{
			Class:         cls,
			Filters:       len(c.filters[cls]),
			DistinctASNs:  len(asns),
			DistinctPorts: len(ports),
		})
	}
	return rows
}

// VolumeByClassInto accumulates the batch's per-class byte volume into
// sums, letting multi-batch scans (a week of component-hours) share one
// result map.
//
// The scan is tiled: per tile of rows, one classification pass fills the
// lane scratch, then the scatter kernels fold bytes and row counts into
// dense per-lane accumulators. Byte counts sum as uint64, so the totals
// carry no rounding at any magnitude and partial sums merge
// associatively — the property the per-day folds need to produce
// bit-identical aggregates under every grouping of days. Counts — not
// sums — carry the map-key semantics: a class gets a key if and only if
// a row classified into it, even at volume zero.
func (c *Classifier) VolumeByClassInto(sums map[Class]uint64, b *flowrec.Batch) {
	var acc, cnt [simd.Lanes]uint64
	var lanes [simd.Tile]uint8
	rows := b.Len()
	for lo := 0; lo < rows; lo += simd.Tile {
		hi := min(lo+simd.Tile, rows)
		c.classLanes(b, lo, hi, lanes[:hi-lo])
		simd.ScatterAddUint64(&acc, lanes[:hi-lo], b.Bytes[lo:hi])
		simd.ScatterCount(&cnt, lanes[:hi-lo])
	}
	n := len(c.order)
	for k := 0; k < n; k++ {
		if cnt[k] > 0 {
			sums[c.order[k]] += acc[k]
		}
	}
	if cnt[n] > 0 {
		sums[Unclassified] += acc[n]
	}
}
