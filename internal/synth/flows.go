package synth

import (
	"time"

	"lockdown/internal/flowrec"
)

// pickWeighted picks an index from precomputed Zipf weights. The draw
// contract matters for determinism: exactly one Float64 is drawn when
// len(w) > 1 and none otherwise.
func pickWeighted(rng *pcg, w []float64) int {
	if len(w) <= 1 {
		return 0
	}
	r := rng.Float64()
	var acc float64
	for i, wi := range w {
		acc += wi
		if r < acc {
			return i
		}
	}
	return len(w) - 1
}

// FlowsForHourBatch samples synthetic flows for the hour starting at t
// into one full-width columnar batch sized from the components' flow
// counts, so a component-hour costs one bulk allocation per column instead
// of one record struct per flow. The records' byte counters sum
// (approximately) to the hour's modelled volume; their count follows the
// components' connection responses; their endpoint addresses are minted
// from the components' AS prefixes with a pool that widens as usage grows
// (so unique-IP counts rise during the lockdown, as in Figure 8).
func (g *Generator) FlowsForHourBatch(t time.Time) *flowrec.Batch {
	return g.HourBatch(t, "", flowrec.AllColumns)
}

// HourBatch samples the hour starting at t into a batch that stores only
// cols: the flows of every component, or of the named one when component
// is not empty (no rows for a name the model does not have). The rows are
// those of FlowsForHourBatch and ComponentFlowsForHourBatch column for
// column — the sampler draws the same random stream whatever is stored —
// so a caller whose readers declare their columns pays for no others.
//
// The batch is drawn from the flowrec pool and belongs to the caller: one
// that only exports or compares it hands the columns back with Release, one
// that keeps it (the dataset cache) never releases, and its draws then find
// the pool empty and allocate.
func (g *Generator) HourBatch(t time.Time, component string, cols flowrec.Columns) *flowrec.Batch {
	b := flowrec.GetProjected(0, cols)
	h := hourAt(t)
	if component == "" {
		g.flowsForHourInto(b, &h, make([]componentHour, len(g.plan)))
	} else if p := g.planOf(component); p != nil {
		s := g.sampled(p, &h)
		b.Grow(s.flows)
		g.sampleInto(b, p, &h, &s)
	}
	return b
}

// flowsForHourInto appends one hour's flows of every component to b. Every
// component-hour is evaluated once into the scratch slice (len == number
// of components) and the batch is grown by the hour's exact flow count
// before any row is appended — one bulk (re)allocation per column per
// hour, none when the caller pre-sized or reuses b.
func (g *Generator) flowsForHourInto(b *flowrec.Batch, h *hour, scratch []componentHour) {
	total := 0
	for i := range g.plan {
		scratch[i] = g.sampled(&g.plan[i], h)
		total += scratch[i].flows
	}
	b.Grow(total)
	for i := range g.plan {
		g.sampleInto(b, &g.plan[i], h, &scratch[i])
	}
}

// sampled evaluates one component-hour for the sampler: volume, connection
// multiplier and flow count, each computed once.
func (g *Generator) sampled(p *componentPlan, h *hour) componentHour {
	return p.withFlows(h, p.evaluate(h), g.cfg.FlowScale)
}

// ComponentFlowsForHourBatch samples one named component's flows for the
// hour starting at t into a full-width batch sized from its flow count.
func (g *Generator) ComponentFlowsForHourBatch(name string, t time.Time) *flowrec.Batch {
	return g.HourBatch(t, name, flowrec.AllColumns)
}

// sampleInto appends the s.flows flows of component p for hour h to b. The
// draw order is the contract here: it is a pure function of (seed,
// component, hour), so batches, record slices and the dataset cache all
// observe identical flows. Every row is drawn in full whatever b stores;
// only the stores are masked by b's column set.
func (g *Generator) sampleInto(b *flowrec.Batch, p *componentPlan, h *hour, s *componentHour) {
	if s.flows == 0 {
		return
	}
	c := p.c
	rng := newPCG(s.hash)
	bytesPerFlow := s.volume / float64(s.flows)
	if bytesPerFlow < 64 {
		bytesPerFlow = 64
	}
	scaledPool := int(float64(p.pool) * s.connMult)
	if scaledPool < 1 {
		scaledPool = 1
	}
	// VPN-over-TLS components pin the enterprise (source) side to the
	// known gateway addresses so domain-based detection can find them.
	pinGateways := c.Class == ClassVPNTLS && len(g.vpnGateways) > 0
	hourEnd := h.ns + int64(time.Hour)
	cols := b.Columns()

	for i := 0; i < s.flows; i++ {
		src := pickWeighted(&rng, p.srcWeights)
		dst := pickWeighted(&rng, p.dstWeights)
		srcASN, dstASN := c.SrcASNs[src], c.DstASNs[dst]

		srcIP := flowrec.Addr(p.srcPools[src].Addr4(uint32(rng.Intn(scaledPool))))
		dstIP := flowrec.Addr(p.dstPools[dst].Addr4(uint32(rng.Intn(scaledPool))))
		if pinGateways {
			gw := &g.vpnGateways[rng.Intn(len(g.vpnGateways))]
			srcIP, srcASN = gw.addr, gw.asn
		}

		pp := c.Ports[0]
		if len(c.Ports) > 1 && rng.Float64() > 0.6 {
			pp = c.Ports[1+rng.Intn(len(c.Ports)-1)]
		}

		start := h.ns + int64(rng.Intn(3600))*int64(time.Second)
		end := start + int64(5+rng.Intn(290))*int64(time.Second)
		if end > hourEnd {
			end = hourEnd
		}

		bytes := uint64(bytesPerFlow * (0.5 + rng.Float64()))
		if bytes == 0 {
			bytes = 64
		}
		packets := bytes / 1200
		if packets == 0 {
			packets = 1
		}

		srcPort, dstPort := pp.Port, uint16(49152+rng.Intn(16000))
		if pp.Proto == flowrec.ProtoGRE || pp.Proto == flowrec.ProtoESP {
			srcPort, dstPort = 0, 0
		}
		var tcpFlags uint8
		if pp.Proto == flowrec.ProtoTCP {
			tcpFlags = 0x1b
		}

		if cols&flowrec.ColStartNs != 0 {
			b.StartNs = append(b.StartNs, start)
		}
		if cols&flowrec.ColEndNs != 0 {
			b.EndNs = append(b.EndNs, end)
		}
		if cols&flowrec.ColSrcIP != 0 {
			b.SrcIP = append(b.SrcIP, srcIP)
		}
		if cols&flowrec.ColDstIP != 0 {
			b.DstIP = append(b.DstIP, dstIP)
		}
		if cols&flowrec.ColSrcPort != 0 {
			b.SrcPort = append(b.SrcPort, srcPort)
		}
		if cols&flowrec.ColDstPort != 0 {
			b.DstPort = append(b.DstPort, dstPort)
		}
		if cols&flowrec.ColProto != 0 {
			b.Proto = append(b.Proto, pp.Proto)
		}
		if cols&flowrec.ColBytes != 0 {
			b.Bytes = append(b.Bytes, bytes)
		}
		if cols&flowrec.ColPackets != 0 {
			b.Packets = append(b.Packets, packets)
		}
		if cols&flowrec.ColSrcAS != 0 {
			b.SrcAS = append(b.SrcAS, srcASN)
		}
		if cols&flowrec.ColDstAS != 0 {
			b.DstAS = append(b.DstAS, dstASN)
		}
		if cols&flowrec.ColInIf != 0 {
			b.InIf = append(b.InIf, 1)
		}
		if cols&flowrec.ColOutIf != 0 {
			b.OutIf = append(b.OutIf, 2)
		}
		if cols&flowrec.ColDir != 0 {
			b.Dir = append(b.Dir, p.connDir)
		}
		if cols&flowrec.ColTCPFlags != 0 {
			b.TCPFlags = append(b.TCPFlags, tcpFlags)
		}
	}
}

// FlowsBetweenBatch samples flows for every hour in [from, to) into one
// batch. Each hour is generated with an exact pre-grow; across hours the
// columns grow amortised.
func (g *Generator) FlowsBetweenBatch(from, to time.Time) *flowrec.Batch {
	b := flowrec.NewBatch(0)
	scratch := make([]componentHour, len(g.plan))
	eachHour(from, to, func(h *hour) {
		g.flowsForHourInto(b, h, scratch)
	})
	return b
}
