package synth

import (
	"hash/fnv"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/diurnal"
	"lockdown/internal/flowrec"
)

// This file is the reference evaluator of the traffic model: the
// straight-line, time.Time-based evaluation the generator used before the
// model was compiled into a per-generator plan (plan.go). It re-derives
// every breakpoint, profile and hash per call, which is what made it slow
// and what makes it easy to read against the Component documentation. The
// equivalence tests hold the compiled plan to it with ==, not ≈: the plan
// may hoist and share work, never change a floating-point expression.

func refProgress(from, to, t time.Time) float64 {
	if !t.After(from) {
		return 0
	}
	if !t.Before(to) {
		return 1
	}
	return float64(t.Sub(from)) / float64(to.Sub(from))
}

func refRampFraction(r Response, t time.Time) float64 {
	outbreak := calendar.OutbreakEurope.Add(r.Delay)
	lock := calendar.LockdownEurope.Add(r.Delay)
	if !r.RampStart.IsZero() {
		lock = r.RampStart
	}
	full := lock.AddDate(0, 0, 10)
	if !r.RampFull.IsZero() {
		full = r.RampFull
	}
	relax := calendar.RelaxationEurope.Add(r.Delay)
	if !r.DecayStart.IsZero() {
		relax = r.DecayStart
	}
	end := calendar.StudyEnd
	if outbreak.After(lock) {
		outbreak = lock.AddDate(0, 0, -14)
	}

	switch {
	case t.Before(outbreak):
		return 0
	case t.Before(lock):
		return r.PreRamp * refProgress(outbreak, lock, t)
	case t.Before(full):
		return r.PreRamp + (1-r.PreRamp)*refProgress(lock, full, t)
	case t.Before(relax):
		return 1
	default:
		return 1 - (1-r.Retained)*refProgress(relax, end, t)
	}
}

func refPeakFor(r Response, t time.Time, weekend bool) float64 {
	peak := r.Peak
	if peak == 0 {
		peak = 1
	}
	if weekend {
		if r.PeakWeekend != 0 {
			return r.PeakWeekend
		}
		return peak
	}
	if r.PeakWorkHours != 0 && calendar.WorkingHours(t.UTC().Hour()) {
		return r.PeakWorkHours
	}
	return peak
}

func refResponseAt(r Response, t time.Time, weekend bool) float64 {
	frac := refRampFraction(r, t)
	m := 1 + (refPeakFor(r, t, weekend)-1)*frac
	if r.Dip != 0 {
		dipStart := calendar.ResolutionReduction.Add(r.Delay)
		dipEnd := calendar.RelaxationEurope.Add(r.Delay)
		if !t.Before(dipStart) && t.Before(dipEnd) {
			m *= r.Dip
		}
	}
	if r.Outage != nil && !t.Before(r.Outage.Start) && t.Before(r.Outage.End) {
		m *= r.Outage.Residual
	}
	if m < 0 {
		m = 0
	}
	return m
}

func refWaveFrac(w Wave, t time.Time) float64 {
	decay := w.DecayStart
	if decay.IsZero() {
		decay = w.End
	}
	switch {
	case t.Before(w.Start):
		return 0
	case t.Before(w.Full):
		return refProgress(w.Start, w.Full, t)
	case decay.IsZero() || t.Before(decay):
		return 1
	case w.End.IsZero() || !w.End.After(decay):
		return w.Retained
	case t.Before(w.End):
		return 1 - (1-w.Retained)*refProgress(decay, w.End, t)
	default:
		return w.Retained
	}
}

func refWaveAt(w Wave, t time.Time, peak float64) float64 {
	f := refWaveFrac(w, t)
	if f == 0 {
		return 1
	}
	m := 1 + (peak-1)*w.Severity*f
	if m < 0 {
		m = 0
	}
	return m
}

func refModulationAt(m Modulation, t time.Time) float64 {
	if t.Before(m.Start) || !t.Before(m.End) {
		return 1
	}
	eff := 1.0
	if m.RampIn > 0 {
		eff = refProgress(m.Start, m.Start.Add(m.RampIn), t)
	}
	if m.RampOut > 0 {
		out := refProgress(m.End.Add(-m.RampOut), m.End, t)
		if rem := 1 - out; rem < eff {
			eff = rem
		}
	}
	return 1 + (m.Factor-1)*eff
}

func refOverlayMultiplier(c Component, t time.Time, peak float64) float64 {
	if len(c.Waves) == 0 && len(c.Mods) == 0 {
		return 1
	}
	m := 1.0
	for _, w := range c.Waves {
		m *= refWaveAt(w, t, peak)
	}
	for _, mod := range c.Mods {
		m *= refModulationAt(mod, t)
	}
	return m
}

func refWeekendLike(c Component, t time.Time) bool {
	return calendar.IsWeekend(t) || calendar.IsHoliday(t) || c.Holidays.Contains(t)
}

// refHourHash is FNV-1a over (seed, component name, hour index): the
// volume noise and the flow sampler's seed are both derived from it.
func refHourHash(seed int64, name string, t time.Time) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	u := uint64(t.UTC().Unix() / 3600)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

func refNoise(seed int64, name string, t time.Time) float64 {
	v := refHourHash(seed, name, t)
	// Map to [-0.03, +0.03].
	return (float64(v%10000)/10000 - 0.5) * 0.06
}

// refVolumeAt returns the component's bytes for the hour starting at t.
func refVolumeAt(c Component, t time.Time, seed int64) float64 {
	t = t.UTC()
	hour := t.Hour()
	weekend := refWeekendLike(c, t)

	// Diurnal shape.
	var prof diurnal.Profile
	level := 1.0
	if weekend {
		prof = c.Weekend
		if c.WeekendLevel != 0 {
			level = c.WeekendLevel
		}
	} else {
		prof = c.Workday
		if c.Shift != nil {
			target := c.LockdownShape
			if target == (diurnal.Profile{}) {
				target = diurnal.LockdownWorkday()
			}
			prof = diurnal.Blend(c.Workday, target, (c.Shift.Peak-1)*refRampFraction(*c.Shift, t))
		}
	}
	mean := prof.Mean()
	if mean == 0 {
		return 0
	}
	shape := prof[hour] / mean

	// Lockdown response.
	resp := c.Resp
	if weekend && c.WeekendResp != nil {
		resp = *c.WeekendResp
	}
	mult := refResponseAt(resp, t, weekend)
	if len(c.Waves) != 0 || len(c.Mods) != 0 {
		mult *= refOverlayMultiplier(c, t, refPeakFor(resp, t, weekend))
	}

	v := c.BaseGbps * 1e9 / 8 * 3600 * shape * level * mult
	v *= 1 + refNoise(seed, c.Name, t)
	if v < 0 {
		v = 0
	}
	return v
}

// refConnMultiplier returns the connection-count multiplier of a
// component at t: the dedicated connection response if present, otherwise
// the volume response, times any scenario overlays.
func refConnMultiplier(c Component, t time.Time) float64 {
	weekend := refWeekendLike(c, t)
	resp := c.Resp
	if weekend && c.WeekendResp != nil {
		resp = *c.WeekendResp
	}
	if c.ConnResp != nil && !weekend {
		resp = *c.ConnResp
	}
	m := refResponseAt(resp, t, weekend)
	if len(c.Waves) != 0 || len(c.Mods) != 0 {
		m *= refOverlayMultiplier(c, t, refPeakFor(resp, t, weekend))
	}
	return m
}

// refRawFlowCount is the unclamped flow count of a component-hour; ok is
// false for a silenced profile (zero mean).
func refRawFlowCount(c Component, t time.Time, flowScale float64) (raw float64, ok bool) {
	prof := c.Workday
	if refWeekendLike(c, t) {
		prof = c.Weekend
	}
	mean := prof.Mean()
	if mean == 0 {
		return 0, false
	}
	shape := prof[t.UTC().Hour()] / mean
	return flowBasePerHour * shape * refConnMultiplier(c, t) * flowScale, true
}

// refFlowCount returns how many flow records the sampler emits for
// component c in the hour starting at t.
func refFlowCount(c Component, t time.Time, flowScale float64) int {
	raw, ok := refRawFlowCount(c, t, flowScale)
	if !ok || raw <= 0 {
		return 0
	}
	n := int(raw)
	if n < 1 {
		n = 1
	}
	return n
}

// The rest of this file is the reference flow sampler: the row-at-a-time
// loop the generator ran before it drew a chunk of rows and then stored
// them column by column (flows.go), with the pcg methods and the linear
// weighted pick it called. It draws and computes every field of every row
// and masks only the stores. The same rule holds as above: the sampler may
// reorder and skip work, never change the draw sequence or a
// floating-point expression — TestSamplerMatchesReference holds it to this
// loop with ==.

// next32 advances the LCG state and returns the permuted 32-bit output
// (XSH-RR: xorshift high bits, random rotate).
func (p *pcg) next32() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// next64 composes two 32-bit outputs.
func (p *pcg) next64() uint64 {
	return uint64(p.next32())<<32 | uint64(p.next32())
}

// Float64 returns a uniform value in [0, 1) with 53 random bits.
func (p *pcg) Float64() float64 {
	return float64(p.next64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method on the 32-bit output (n must fit in 32 bits).
func (p *pcg) Intn(n int) int {
	if n <= 0 {
		panic("synth: Intn with non-positive n")
	}
	bound := uint32(n)
	for {
		v := p.next32()
		prod := uint64(v) * uint64(bound)
		if uint32(prod) >= bound || uint32(prod) >= -bound%bound {
			return int(prod >> 32)
		}
	}
}

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

// refHourBatch is HourBatch over refSampleInto.
func refHourBatch(g *Generator, t time.Time, component string, cols flowrec.Columns) *flowrec.Batch {
	b := flowrec.NewProjected(0, cols)
	h := hourAt(t)
	for i := range g.plan {
		if p := &g.plan[i]; component == "" || p.c.Name == component {
			s := g.sampled(p, &h)
			refSampleInto(g, b, p, &h, &s)
		}
	}
	return b
}

// refSampleInto appends the s.flows flows of component p for hour h to b.
func refSampleInto(g *Generator, b *flowrec.Batch, p *componentPlan, h *hour, s *componentHour) {
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
