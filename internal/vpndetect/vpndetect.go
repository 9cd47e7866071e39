// Package vpndetect implements the two-pronged VPN traffic classification
// of Section 6 of "The Lockdown Effect" (IMC 2020): (1) flows on well-known VPN ports and protocols (IPsec,
// OpenVPN, L2TP, PPTP, GRE, ESP), and (2) TCP/443 flows whose non-eyeball
// endpoint address belongs to the *vpn* domain candidate set derived from
// the DNS corpus (package dnsdb).
package vpndetect

import (
	"net/netip"

	"lockdown/internal/dnsdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/ports"
	"lockdown/internal/simd"
)

// Method says how a flow was identified as VPN traffic.
type Method int

// Detection methods.
const (
	// NotVPN marks flows that neither method identifies.
	NotVPN Method = iota
	// ByPort marks flows on a well-known VPN port or protocol.
	ByPort
	// ByDomain marks TCP/443 flows towards a *vpn* candidate address.
	ByDomain
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case ByPort:
		return "port"
	case ByDomain:
		return "domain"
	default:
		return "none"
	}
}

// laneCandidate marks TCP/443 rows in the lane scan: the port pass alone
// cannot decide them (the answer depends on the address columns), so the
// fixup pass resolves them to ByDomain or NotVPN against the candidate
// set. Lanes 0-2 are the Method values themselves.
const laneCandidate = 3

// Detector classifies flows as VPN traffic.
type Detector struct {
	vpnPorts map[flowrec.PortProto]bool
	// candidates is keyed by the column form of the address, so the
	// batch kernel looks a row up without converting it.
	candidates map[flowrec.Addr]bool
	// lanes is the port table of the batch kernel: VPN ports to ByPort,
	// TCP/443 to laneCandidate, everything else to NotVPN.
	lanes *flowrec.PortLanes
}

// New builds a detector from the candidate address set (may be nil, in
// which case only port-based detection is available). A non-IPv4
// candidate is dropped: no flow column can hold its equal.
func New(candidates map[netip.Addr]bool) *Detector {
	d := &Detector{
		vpnPorts:   make(map[flowrec.PortProto]bool),
		candidates: make(map[flowrec.Addr]bool, len(candidates)),
		lanes:      flowrec.NewPortLanes(uint8(NotVPN)),
	}
	for ip, ok := range candidates {
		if a, err := flowrec.AddrFrom(ip); err == nil {
			d.candidates[a] = ok
		}
	}
	for _, p := range ports.VPNPorts() {
		d.vpnPorts[p] = true
		d.lanes.Set(p, uint8(ByPort))
	}
	d.lanes.Set(flowrec.PortProto{Proto: flowrec.ProtoTCP, Port: 443}, laneCandidate)
	return d
}

// NewFromCorpus builds a detector whose candidate set is computed from the
// DNS corpus using the Section 6 algorithm.
func NewFromCorpus(c *dnsdb.Corpus) *Detector {
	return New(dnsdb.VPNCandidates(c))
}

// Candidates returns the number of candidate VPN addresses known to the
// detector.
func (d *Detector) Candidates() int { return len(d.candidates) }

// Columns is what the detector's batch scans (ClassifyAt,
// SplitBatchSums) read of a batch: the server-port columns, both
// addresses and the byte counter.
const Columns = flowrec.PortLaneColumns | flowrec.ColSrcIP | flowrec.ColDstIP | flowrec.ColBytes

// ClassifyAt returns how (if at all) batch row i is identified as VPN
// traffic, reading only the port and address columns. Port-based
// identification takes precedence; the domain-based method only
// considers HTTPS (TCP/443) flows, mirroring the paper's conservative
// approach.
func (d *Detector) ClassifyAt(b *flowrec.Batch, i int) Method {
	sp := b.ServerPortAt(i)
	if d.vpnPorts[sp] {
		return ByPort
	}
	if sp.Proto == flowrec.ProtoTCP && sp.Port == 443 && (d.candidates[b.SrcIP[i]] || d.candidates[b.DstIP[i]]) {
		return ByDomain
	}
	return NotVPN
}

// methodLanes runs the lane scan of SplitBatchSums over rows [lo, hi): a
// bulk port-lane pass, then a fixup resolving laneCandidate (TCP/443)
// rows against the candidate address set (an empty one resolves them all
// to NotVPN). After it, every lane is a Method value.
func (d *Detector) methodLanes(b *flowrec.Batch, lo, hi int, lanes []uint8) {
	b.ServerPortLanes(d.lanes, lo, hi, lanes)
	src := b.SrcIP[lo:hi]
	dst := b.DstIP[lo:hi]
	dst = dst[:len(src)]
	lanes = lanes[:len(src)]
	for i, l := range lanes {
		if l == laneCandidate {
			m := uint8(NotVPN)
			if d.candidates[src[i]] || d.candidates[dst[i]] {
				m = uint8(ByDomain)
			}
			lanes[i] = m
		}
	}
}

// SplitBatchSums accumulates the batch's per-method byte volume into
// sums as exact integers: index order is NotVPN, ByPort, ByDomain.
// uint64 addition is associative, so partial sums from any hour or chunk
// grouping merge exactly — the property the sharded experiment scans
// need. This is the kernel the figure-11/12 aggregations run on.
func (d *Detector) SplitBatchSums(sums *[3]uint64, b *flowrec.Batch) {
	var acc [simd.Lanes]uint64
	var lanes [simd.Tile]uint8
	n := b.Len()
	for lo := 0; lo < n; lo += simd.Tile {
		hi := min(lo+simd.Tile, n)
		d.methodLanes(b, lo, hi, lanes[:hi-lo])
		simd.ScatterAddUint64(&acc, lanes[:hi-lo], b.Bytes[lo:hi])
	}
	sums[NotVPN] += acc[NotVPN]
	sums[ByPort] += acc[ByPort]
	sums[ByDomain] += acc[ByDomain]
}
