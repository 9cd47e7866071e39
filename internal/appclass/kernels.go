package appclass

import (
	"math/bits"

	"lockdown/internal/flowrec"
)

// program is the Table-1 filter inventory compiled to a branch-free
// bitmask evaluator. Every live filter (one with at least one criterion)
// owns one bit, assigned in evaluation order — class-major, filter order
// within each class preserved. A row's classification is then:
//
//	eligible = (portAlways | portBits[server port])
//	         & (asnAlways  | asnBits[srcAS] | asnBits[dstAS])
//	lane     = classOf[TrailingZeros64(eligible | sentinel)]
//
// where portBits has bit f set iff filter f lists that (proto, port)
// pair, asnBits has bit f set iff filter f lists that ASN, and the
// always-masks carry the filters that omit that criterion entirely. The
// first matching filter in evaluation order is the lowest set bit, so
// TrailingZeros64 reproduces the nested first-match loop exactly; the
// sentinel bit (numFilters) maps to the unclassified lane and fires when
// nothing matched. Three table loads, two ANDs and a TZCNT replace ~43
// filters × (ASN scan + port scan) per row.
//
// Both-empty filters match nothing (the matches method's final clause)
// and are simply not assigned a bit. A filter with both criteria needs
// its bit present on both sides of the AND — requiring both, as matches
// does.
type program struct {
	numFilters int
	// classOf maps a filter's bit index to its class lane; entry
	// numFilters (the sentinel) holds the unclassified lane. Sized 64 and
	// indexed &63 so lookups are provably in bounds.
	classOf    [64]uint8
	portAlways uint64
	asnAlways  uint64
	// portTabs rows are copy-on-write over a shared all-zero default,
	// like flowrec.PortLanes: only TCP and UDP allocate real rows.
	portTabs [256]*[65536]uint64
	// asnTab is sized to the largest filtered ASN + 1 (~395k entries,
	// ~3 MiB once per classifier); lookups above the bound contribute no
	// bits, the same as an absent map key.
	asnTab []uint64
}

func compileProgram(order []Class, ordFilters [][]Filter) *program {
	p := &program{}
	portDef := new([65536]uint64)
	for i := range p.portTabs {
		p.portTabs[i] = portDef
	}

	maxASN := uint32(0)
	for _, fs := range ordFilters {
		for _, f := range fs {
			for _, a := range f.ASNs {
				maxASN = max(maxASN, a)
			}
		}
	}
	p.asnTab = make([]uint64, int(maxASN)+1)

	f := 0
	for k, fs := range ordFilters {
		for _, flt := range fs {
			if len(flt.ASNs) == 0 && len(flt.Ports) == 0 {
				continue // matches nothing; no bit
			}
			if f >= 63 {
				panic("appclass: filter inventory exceeds 63 live filters; widen the program to multiple words")
			}
			bit := uint64(1) << f
			p.classOf[f] = uint8(k)
			if len(flt.Ports) == 0 {
				p.portAlways |= bit
			} else {
				for _, pp := range flt.Ports {
					row := p.portTabs[pp.Proto]
					if row == portDef {
						row = new([65536]uint64)
						p.portTabs[pp.Proto] = row
					}
					row[pp.Port] |= bit
				}
			}
			if len(flt.ASNs) == 0 {
				p.asnAlways |= bit
			} else {
				for _, a := range flt.ASNs {
					p.asnTab[a] |= bit
				}
			}
			f++
		}
	}
	p.numFilters = f
	p.classOf[f] = uint8(len(order))
	return p
}

// asnBits returns the filter bits of one AS endpoint without branching:
// the index is clamped into the table and the loaded word masked to zero
// when the AS was out of range.
func (p *program) asnBits(as uint32) uint64 {
	n := uint32(len(p.asnTab))
	in := as < n
	idx := min(as, n-1)
	var m uint64
	if in {
		m = ^uint64(0)
	}
	return p.asnTab[idx] & m
}

// Columns is what the Classifier's batch scans (ClassifyAt,
// VolumeByClassInto) read of a batch: the server-port columns, both AS
// numbers and the byte counter.
const Columns = flowrec.PortLaneColumns | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColBytes

// laneOf classifies one flow from the three values classification
// depends on, returning the class lane (index in evaluation order;
// len(order) for unclassified).
func (p *program) laneOf(srcAS, dstAS uint32, sp flowrec.PortProto) uint8 {
	portBits := p.portAlways | p.portTabs[sp.Proto][sp.Port]
	asnBits := p.asnAlways | p.asnBits(srcAS) | p.asnBits(dstAS)
	eligible := portBits&asnBits | uint64(1)<<p.numFilters
	return p.classOf[bits.TrailingZeros64(eligible)&63]
}

// classLanes fills lanes[0:hi-lo] with the class lane of each row in
// [lo, hi). The loop body is straight-line: the inlined ServerPortAt is
// arithmetic plus a mask load, and laneOf is table loads and bit ops.
func (c *Classifier) classLanes(b *flowrec.Batch, lo, hi int, lanes []uint8) {
	p := c.prog
	srcAS := b.SrcAS[lo:hi]
	dstAS := b.DstAS[lo:hi]
	dstAS = dstAS[:len(srcAS)]
	lanes = lanes[:len(srcAS)]
	for i := range srcAS {
		sp := b.ServerPortAt(lo + i)
		lanes[i] = p.laneOf(srcAS[i], dstAS[i], sp)
	}
}
