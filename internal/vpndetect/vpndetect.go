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

// Detector classifies flow records as VPN traffic.
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

// classify is the shared core of the record and batch paths: the two
// methods need only the service-side port and the endpoint addresses.
func (d *Detector) classify(sp flowrec.PortProto, src, dst flowrec.Addr) Method {
	if d.vpnPorts[sp] {
		return ByPort
	}
	if sp.Proto == flowrec.ProtoTCP && sp.Port == 443 && (d.candidates[src] || d.candidates[dst]) {
		return ByDomain
	}
	return NotVPN
}

// Classify returns how (if at all) the record is identified as VPN
// traffic. Port-based identification takes precedence; the domain-based
// method only considers HTTPS (TCP/443) flows, mirroring the paper's
// conservative approach.
func (d *Detector) Classify(r flowrec.Record) Method {
	// A non-IPv4 address is looked up as an unset one: 0.0.0.0.
	src, _ := flowrec.AddrFrom(r.SrcIP)
	dst, _ := flowrec.AddrFrom(r.DstIP)
	return d.classify(r.ServerPort(), src, dst)
}

// Columns is what the detector's batch scans (ClassifyAt, SplitBatch,
// SplitBatchSums) read of a batch: the server-port columns, both
// addresses and the byte counter.
const Columns = flowrec.PortLaneColumns | flowrec.ColSrcIP | flowrec.ColDstIP | flowrec.ColBytes

// ClassifyAt classifies batch row i, reading only the port and address
// columns.
func (d *Detector) ClassifyAt(b *flowrec.Batch, i int) Method {
	return d.classify(b.ServerPortAt(i), b.SrcIP[i], b.DstIP[i])
}

// Split sums the byte volume of the records per detection method.
func (d *Detector) Split(recs []flowrec.Record) map[Method]float64 {
	out := map[Method]float64{NotVPN: 0, ByPort: 0, ByDomain: 0}
	for _, r := range recs {
		out[d.Classify(r)] += float64(r.Bytes)
	}
	return out
}

// methodLanes runs the shared lane scan of the batch kernels over rows
// [lo, hi): a bulk port-lane pass, then a fixup resolving laneCandidate
// (TCP/443) rows against the candidate address set (an empty one
// resolves them all to NotVPN). After it, every lane is a Method value.
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

// SplitBatch is Split over a columnar batch, scanning the port, address
// and byte columns without materialising records. Accumulation order is
// row order, so the sums are bit-identical to the record path: the float
// scatter kernel adds each lane's bytes in row order, exactly as the
// per-row map writes did.
func (d *Detector) SplitBatch(b *flowrec.Batch) map[Method]float64 {
	var acc [simd.Lanes]float64
	var lanes [simd.Tile]uint8
	n := b.Len()
	for lo := 0; lo < n; lo += simd.Tile {
		hi := min(lo+simd.Tile, n)
		d.methodLanes(b, lo, hi, lanes[:hi-lo])
		simd.ScatterAddFloat64FromUint64(&acc, lanes[:hi-lo], b.Bytes[lo:hi])
	}
	return map[Method]float64{
		NotVPN:   acc[NotVPN],
		ByPort:   acc[ByPort],
		ByDomain: acc[ByDomain],
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
