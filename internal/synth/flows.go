package synth

import (
	"math"
	"time"

	"lockdown/internal/flowrec"
)

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
// is not empty (no rows for a name the model does not have). It is the
// one-hour span of ComponentBatch. The rows are those of the full-width
// batch column for column — the sampler draws the same random stream
// whatever is stored — so a caller whose readers declare their columns
// pays for no others.
//
// The batch is drawn from the flowrec pool and belongs to the caller: one
// that only exports or compares it hands the columns back with Release, one
// that keeps it (the dataset cache) never releases, and its draws then find
// the pool empty and allocate.
func (g *Generator) HourBatch(t time.Time, component string, cols flowrec.Columns) *flowrec.Batch {
	start := t.UTC().Truncate(time.Hour)
	return g.ComponentBatch(component, start, start.Add(time.Hour), cols)
}

// ComponentBatch samples every whole hour of [from, to) into one batch
// that stores only cols: the flows of the named component, or of every
// component when the name is empty. Each hour's rows, drawn from that
// hour's own streams, follow the previous hour's, and within an hour the
// components follow their model order, so a span equals its hours sampled
// one by one (HourBatch is the one-hour span). Every component-hour is
// evaluated before any row is drawn, so the batch is grown once, to the
// span's exact flow count. An unknown name yields an empty batch of cols.
// The batch belongs to the caller, as HourBatch's does.
func (g *Generator) ComponentBatch(component string, from, to time.Time, cols flowrec.Columns) *flowrec.Batch {
	b := flowrec.GetProjected(0, cols)
	plans := g.plansOf(component)
	span, total := g.evaluateSpan(plans, from, to)
	b.Grow(total)
	var d draws
	start, n := hoursOf(from, to)
	for i := range n {
		h := hourAt(start.Add(time.Duration(i) * time.Hour))
		for j := range plans {
			g.sampleInto(b, &d, &plans[j], &h, &span[i*len(plans)+j])
		}
	}
	return b
}

// HourFlows returns the row count of every whole hour of [from, to) in
// ComponentBatch's batch of the same span — where each hour's rows start
// and end in it — without drawing a row.
func (g *Generator) HourFlows(component string, from, to time.Time) []int {
	plans := g.plansOf(component)
	span, _ := g.evaluateSpan(plans, from, to)
	_, n := hoursOf(from, to)
	out := make([]int, n)
	for i := range span {
		out[i/len(plans)] += span[i].flows
	}
	return out
}

// plansOf returns the plans of the named component — one, or none for a
// name the model does not have — or every plan when the name is empty.
func (g *Generator) plansOf(component string) []componentPlan {
	if component == "" {
		return g.plan
	}
	for i := range g.plan {
		if g.plan[i].c.Name == component {
			return g.plan[i : i+1]
		}
	}
	return nil
}

// evaluateSpan evaluates every component-hour of plans over the whole
// hours of [from, to), hour after hour and within an hour in plan order,
// and returns them with their total flow count.
func (g *Generator) evaluateSpan(plans []componentPlan, from, to time.Time) ([]componentHour, int) {
	start, n := hoursOf(from, to)
	span := make([]componentHour, 0, n*len(plans))
	total := 0
	for i := range n {
		h := hourAt(start.Add(time.Duration(i) * time.Hour))
		for j := range plans {
			span = append(span, g.sampled(&plans[j], &h))
			total += span[len(span)-1].flows
		}
	}
	return span, total
}

// sampled evaluates one component-hour for the sampler: volume, connection
// multiplier and flow count, each computed once.
func (g *Generator) sampled(p *componentPlan, h *hour) componentHour {
	return p.withFlows(h, p.evaluate(h), g.cfg.FlowScale)
}

// The sampler's contract: the draw sequence of a component-hour is a pure
// function of (seed, component, hour); what is computed from it is a
// function of the stored columns. Every row consumes the same draws in the
// same order whatever the batch stores, so batches of any column set and
// the dataset cache all observe identical flows — and a value nobody
// stores (an address, for three rows in four of the suite) is never
// computed.

// drawChunk is how many rows are drawn before they are stored: ~10 KB of
// draws, which stay in L1 between the two passes.
const drawChunk = 256

// maxPorts bounds a component's Ports, which draws.port indexes with a
// uint16; New refuses a longer list.
const maxPorts = 1 << 16

// draws holds the raw results of a chunk's draws, row by row. It lives on
// the stack of the call that samples an hour and is handed down by
// pointer: the generator keeps no per-call state, and nothing is zeroed
// between components — the store pass reads only what the draw pass of the
// same chunk wrote.
type draws struct {
	// src and dst choose the endpoint ASes: the 53-bit mantissa of a
	// weighted pick (stale on a side with a single AS, which draws nothing
	// and picks index 0 whatever it reads), or in src the gateway index of
	// a pinned component. The store pass resolves picks to indices in place.
	src, dst         [drawChunk]uint64
	srcHost, dstHost [drawChunk]uint32 // indices into the AS address pools
	size             [drawChunk]uint64 // mantissa of the byte-count factor
	start, dur, eph  [drawChunk]uint16 // start second, duration - 5 s, client port - 49152
	port             [drawChunk]uint16 // index into the component's ports
}

// sampleInto appends the s.flows flows of component p for hour h to b,
// whose columns have room for them: a draw pass over each chunk of rows,
// then a store pass over the columns b stores.
func (g *Generator) sampleInto(b *flowrec.Batch, d *draws, p *componentPlan, h *hour, s *componentHour) {
	if s.flows == 0 {
		return
	}
	bytesPerFlow := s.volume / float64(s.flows)
	if bytesPerFlow < 64 {
		bytesPerFlow = 64
	}
	// The address pool widens with the connection response. A bounded
	// draw takes 32 bits, so the product saturates there (the pools wrap
	// at 65534 hosts long before).
	pool := uint32(1)
	if scaled := float64(p.pool) * s.connMult; scaled >= math.MaxUint32 {
		pool = math.MaxUint32
	} else if scaled >= 1 {
		pool = uint32(scaled)
	}
	// VPN-over-TLS components pin the enterprise (source) side to the
	// known gateway addresses so domain-based detection can find them.
	var gateways []gateway
	if p.c.Class == ClassVPNTLS {
		gateways = g.vpnGateways
	}
	rng := newPCG(s.hash)
	for left := s.flows; left > 0; left -= drawChunk {
		n := min(left, drawChunk)
		rng.state = p.draw(d, n, rng.state, rng.inc, pool, uint32(len(gateways)))
		p.store(b, d, n, h.ns, bytesPerFlow, gateways)
	}
}

// mantissa draws the 53 random bits of a uniform float64 in [0, 1).
func mantissa(state, inc uint64) (uint64, uint64) {
	state, hi := step(state, inc)
	state, lo := step(state, inc)
	return state, (uint64(hi)<<32 | uint64(lo)) >> 11
}

// draw fills d with the draws of the next n rows and returns the advanced
// generator state. The order of the draws within a row is the contract;
// each bounded draw is step, Lemire's product and the inline accept test
// (see redraw).
func (p *componentPlan) draw(d *draws, n int, state, inc uint64, pool, gateways uint32) uint64 {
	pickSrc, pickDst := len(p.srcBelow) != 0, len(p.dstBelow) != 0
	otherPorts := uint32(len(p.ports) - 1)
	for i := range d.src[:n] { // n <= drawChunk: no index below is checked again
		var v uint32
		var m, prod uint64
		if pickSrc {
			state, d.src[i] = mantissa(state, inc)
		}
		if pickDst {
			state, d.dst[i] = mantissa(state, inc)
		}
		state, v = step(state, inc)
		if prod = uint64(v) * uint64(pool); uint32(prod) < pool {
			state, prod = redraw(state, inc, prod, pool)
		}
		d.srcHost[i] = uint32(prod >> 32)
		state, v = step(state, inc)
		if prod = uint64(v) * uint64(pool); uint32(prod) < pool {
			state, prod = redraw(state, inc, prod, pool)
		}
		d.dstHost[i] = uint32(prod >> 32)
		if gateways != 0 {
			state, v = step(state, inc)
			if prod = uint64(v) * uint64(gateways); uint32(prod) < gateways {
				state, prod = redraw(state, inc, prod, gateways)
			}
			d.src[i] = prod >> 32
		}
		// The dominant port, or with probability 0.4 one of the others.
		d.port[i] = 0
		if otherPorts != 0 {
			if state, m = mantissa(state, inc); float64(m)/(1<<53) > 0.6 {
				state, v = step(state, inc)
				if prod = uint64(v) * uint64(otherPorts); uint32(prod) < otherPorts {
					state, prod = redraw(state, inc, prod, otherPorts)
				}
				d.port[i] = 1 + uint16(prod>>32)
			}
		}
		state, v = step(state, inc)
		if prod = uint64(v) * 3600; uint32(prod) < 3600 {
			state, prod = redraw(state, inc, prod, 3600)
		}
		d.start[i] = uint16(prod >> 32)
		state, v = step(state, inc)
		if prod = uint64(v) * 290; uint32(prod) < 290 {
			state, prod = redraw(state, inc, prod, 290)
		}
		d.dur[i] = uint16(prod >> 32)
		state, d.size[i] = mantissa(state, inc)
		state, v = step(state, inc)
		if prod = uint64(v) * 16000; uint32(prod) < 16000 {
			state, prod = redraw(state, inc, prod, 16000)
		}
		d.eph[i] = uint16(prod >> 32)
	}
	return state
}

// resolve replaces each mantissa of a weighted pick by the index it
// picks: the number of cumulative thresholds (pickBelow) it is not below.
// It counts instead of searching because the lists are at most 14 long
// and the cost of a search is its mispredicted exit, twice a row. Not
// inlined: within store the inner loop's counter is spilled every turn.
//
//go:noinline
func resolve(picks, below []uint64) {
	for i, m := range picks {
		k := uint64(len(below))
		for _, t := range below {
			k -= (m - t) >> 63 // 1 when m < t: both are below 2^63
		}
		picks[i] = k
	}
}

// rows extends a column by n rows — Grow has made room — and returns
// them; a column the batch does not store (stored == 0) gets none.
func rows[T any](col *[]T, n int, stored flowrec.Columns) []T {
	if stored == 0 {
		return nil
	}
	s := *col
	*col = s[:len(s)+n]
	return (*col)[len(s):]
}

// store appends the first n rows of d to the columns b stores, one loop
// per column; a column b does not store costs nothing, and neither does
// what only it needs (the picks, the addresses, the byte counts).
func (p *componentPlan) store(b *flowrec.Batch, d *draws, n int, hourNs int64, bytesPerFlow float64, gateways []gateway) {
	cols := b.Columns()

	// Endpoints; a pinned source is the drawn gateway's.
	if len(gateways) == 0 && cols&(flowrec.ColSrcAS|flowrec.ColSrcIP) != 0 {
		resolve(d.src[:n], p.srcBelow)
	}
	if cols&(flowrec.ColDstAS|flowrec.ColDstIP) != 0 {
		resolve(d.dst[:n], p.dstBelow)
	}
	for i, out := 0, rows(&b.SrcAS, n, cols&flowrec.ColSrcAS); i < len(out); i++ {
		if len(gateways) != 0 {
			out[i] = gateways[d.src[i]].asn
		} else {
			out[i] = p.c.SrcASNs[d.src[i]]
		}
	}
	for i, out := 0, rows(&b.DstAS, n, cols&flowrec.ColDstAS); i < len(out); i++ {
		out[i] = p.c.DstASNs[d.dst[i]]
	}
	for i, out := 0, rows(&b.SrcIP, n, cols&flowrec.ColSrcIP); i < len(out); i++ {
		if len(gateways) != 0 {
			out[i] = gateways[d.src[i]].addr
		} else {
			out[i] = flowrec.Addr(p.srcPools[d.src[i]].Addr4(d.srcHost[i]))
		}
	}
	for i, out := 0, rows(&b.DstIP, n, cols&flowrec.ColDstIP); i < len(out); i++ {
		out[i] = flowrec.Addr(p.dstPools[d.dst[i]].Addr4(d.dstHost[i]))
	}

	// Time: a start second within the hour and 5-294 s of duration, cut
	// off at the end of the hour.
	for i, out := 0, rows(&b.StartNs, n, cols&flowrec.ColStartNs); i < len(out); i++ {
		out[i] = hourNs + int64(d.start[i])*int64(time.Second)
	}
	for i, out := 0, rows(&b.EndNs, n, cols&flowrec.ColEndNs); i < len(out); i++ {
		out[i] = hourNs + min(int64(d.start[i])+5+int64(d.dur[i]), 3600)*int64(time.Second)
	}

	// Size: bytes spread over 0.5-1.5 of the component-hour's mean, and
	// the packets they make.
	for i, out := 0, rows(&b.Bytes, n, cols&flowrec.ColBytes); i < len(out); i++ {
		out[i] = flowBytes(bytesPerFlow, d.size[i])
	}
	for i, out := 0, rows(&b.Packets, n, cols&flowrec.ColPackets); i < len(out); i++ {
		out[i] = max(flowBytes(bytesPerFlow, d.size[i])/1200, 1)
	}

	// Ports: the server is the source side; see portRow.
	for i, out := 0, rows(&b.SrcPort, n, cols&flowrec.ColSrcPort); i < len(out); i++ {
		out[i] = p.ports[d.port[i]].srcPort
	}
	for i, out := 0, rows(&b.DstPort, n, cols&flowrec.ColDstPort); i < len(out); i++ {
		out[i] = (49152 + d.eph[i]) & p.ports[d.port[i]].dstMask
	}
	for i, out := 0, rows(&b.Proto, n, cols&flowrec.ColProto); i < len(out); i++ {
		out[i] = p.ports[d.port[i]].proto
	}
	for i, out := 0, rows(&b.TCPFlags, n, cols&flowrec.ColTCPFlags); i < len(out); i++ {
		out[i] = p.ports[d.port[i]].tcpFlags
	}

	// Constants.
	for i, out := 0, rows(&b.InIf, n, cols&flowrec.ColInIf); i < len(out); i++ {
		out[i] = 1
	}
	for i, out := 0, rows(&b.OutIf, n, cols&flowrec.ColOutIf); i < len(out); i++ {
		out[i] = 2
	}
	for i, out := 0, rows(&b.Dir, n, cols&flowrec.ColDir); i < len(out); i++ {
		out[i] = p.connDir
	}
}

// flowBytes is a flow's byte count: the component-hour's mean per flow
// times 0.5 + r, for the uniform r whose mantissa is m.
func flowBytes(bytesPerFlow float64, m uint64) uint64 {
	bytes := uint64(bytesPerFlow * (0.5 + float64(m)/(1<<53)))
	if bytes == 0 {
		bytes = 64
	}
	return bytes
}

// FlowsBetweenBatch samples flows of every component for every hour in
// [from, to) into one full-width batch: ComponentBatch's span.
func (g *Generator) FlowsBetweenBatch(from, to time.Time) *flowrec.Batch {
	return g.ComponentBatch("", from, to, flowrec.AllColumns)
}
