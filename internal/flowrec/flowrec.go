// Package flowrec defines the flow record model shared by every other
// package in this repository.
//
// A Record is the in-memory representation of one unidirectional flow
// summary, equivalent to the information the vantage points of "The
// Lockdown Effect" (IMC 2020) export
// via NetFlow v9 or IPFIX: the 5-tuple, byte and packet counters, the
// source and destination autonomous system numbers, router interfaces and a
// direction label. Records never carry payload.
//
// Record is the edge type: one flow with time.Time stamps and netip.Addr
// endpoints, for fixtures, reference implementations and anything that
// hands a flow to code outside this repository. The data path moves
// flows as a Batch, whose columns are flat and pointer-free; there the
// address type is Addr, and Batch.Record / Batch.Append convert.
//
// A Batch stores a set of its fifteen columns (Columns). Full width is
// the default and what the wire codecs and the Record conversions
// require; a batch built for scans that declare what they read
// (PortLaneColumns and the sets the kernel packages export) stores those
// columns alone, and asking it for a record, or a codec for its bytes,
// fails naming the missing column.
package flowrec

import (
	"fmt"
	"net/netip"
	"time"
)

// Proto identifies the transport (or tunnelling) protocol of a flow. The
// values follow the IANA protocol number registry so records can be encoded
// on the wire without translation.
type Proto uint8

// Protocol numbers used throughout the paper's analyses.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
	ProtoGRE  Proto = 47
	ProtoESP  Proto = 50
)

// String returns the conventional name of the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	case ProtoGRE:
		return "GRE"
	case ProtoESP:
		return "ESP"
	default:
		return fmt.Sprintf("PROTO(%d)", uint8(p))
	}
}

// Direction describes whether a flow enters or leaves the measured network.
// The EDU analysis in Section 7 of the paper depends on it; at the IXPs the
// direction is usually Unknown because the platform only sees peering
// traffic.
type Direction uint8

// Direction values.
const (
	DirUnknown Direction = iota
	DirIngress
	DirEgress
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirIngress:
		return "in"
	case DirEgress:
		return "out"
	default:
		return "unknown"
	}
}

// Record is a single flow summary.
//
// The zero value is a valid (empty) record. All fields are exported so that
// codecs, generators and analyses can construct records directly.
type Record struct {
	// Start and End bound the flow's active interval.
	Start time.Time
	End   time.Time

	// SrcIP and DstIP are the flow endpoints; analyses never rely on
	// real address values.
	SrcIP netip.Addr
	DstIP netip.Addr

	// SrcPort and DstPort are transport ports; zero for protocols
	// without ports (GRE, ESP, ICMP).
	SrcPort uint16
	DstPort uint16

	// Proto is the transport protocol.
	Proto Proto

	// Bytes and Packets are the flow's volume counters.
	Bytes   uint64
	Packets uint64

	// SrcAS and DstAS are the origin AS numbers of the endpoints as
	// seen by the exporting router (or assigned by the generator).
	SrcAS uint32
	DstAS uint32

	// InIf and OutIf are the SNMP indices of the router interfaces the
	// flow entered and left on.
	InIf  uint16
	OutIf uint16

	// Dir labels the flow relative to the measured network.
	Dir Direction

	// TCPFlags is the OR of all TCP flags seen (0 for non-TCP).
	TCPFlags uint8
}

// PortProto names a transport port together with its protocol, e.g.
// "UDP/443". It is the unit of the port-level analyses in Section 4.
type PortProto struct {
	Proto Proto
	Port  uint16
}

// String renders the pair in the paper's "TCP/443" notation. Port-less
// protocols render as just the protocol name ("GRE", "ESP").
func (pp PortProto) String() string {
	if pp.Proto == ProtoGRE || pp.Proto == ProtoESP || pp.Proto == ProtoICMP {
		return pp.Proto.String()
	}
	return fmt.Sprintf("%s/%d", pp.Proto, pp.Port)
}

// ServerPort returns the record's service-side port/protocol pair. The
// heuristic used throughout the paper (and by most flow studies) is that the
// numerically lower port of a flow identifies the service; registered ports
// below 1024 always win.
func (r Record) ServerPort() PortProto {
	if r.Proto == ProtoGRE || r.Proto == ProtoESP || r.Proto == ProtoICMP {
		return PortProto{Proto: r.Proto}
	}
	s, d := r.SrcPort, r.DstPort
	switch {
	case s == 0:
		return PortProto{r.Proto, d}
	case d == 0:
		return PortProto{r.Proto, s}
	case d < s:
		return PortProto{r.Proto, d}
	default:
		return PortProto{r.Proto, s}
	}
}

// Validate reports whether the record is internally consistent: addresses
// are valid and storable in a batch (IPv4), the time interval is
// ordered and counters are plausible (packets implies bytes). Why it
// stays with no caller outside tests: the generator's tests check every
// sampled record with it (synth.TestFlowSamplingConsistency).
func (r Record) Validate() error {
	if !r.SrcIP.IsValid() || !r.DstIP.IsValid() {
		return fmt.Errorf("flowrec: invalid address src=%v dst=%v", r.SrcIP, r.DstIP)
	}
	for _, a := range [...]netip.Addr{r.SrcIP, r.DstIP} {
		if _, err := AddrFrom(a); err != nil {
			return err
		}
	}
	if r.End.Before(r.Start) {
		return fmt.Errorf("flowrec: end %v before start %v", r.End, r.Start)
	}
	if r.Packets > 0 && r.Bytes == 0 {
		return fmt.Errorf("flowrec: %d packets but zero bytes", r.Packets)
	}
	if r.Bytes > 0 && r.Packets == 0 {
		return fmt.Errorf("flowrec: %d bytes but zero packets", r.Bytes)
	}
	return nil
}
