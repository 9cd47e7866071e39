package synth

import (
	"fmt"
	"math"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/calendar"
	"lockdown/internal/diurnal"
	"lockdown/internal/flowrec"
)

// This file is the compiled form of the traffic model. New lowers every
// Component into a componentPlan — timeline breakpoints resolved to Unix
// nanoseconds, diurnal shapes tabulated, the hash state after (seed, name)
// folded, endpoint weights and address pools looked up — and every query
// (series, volumes, flow sampling) evaluates a component-hour off that
// plan exactly once. The plan is a few hundred bytes per component and
// holds nothing per hour.
//
// Evaluation is bit-identical to the straight-line reading of the
// Component documentation (kept as the reference evaluator in
// reference_test.go): the same floating-point expressions in the same
// order, only hoisted out of the hour loop, shared between the volume,
// the connection multiplier and the flow count of one component-hour, or
// fused without copies — blendShape runs diurnal.Blend, normalise and
// Mean in one function on pointers, where the reference calls Blend.

// progress returns how far t has advanced through [from, to], clamped to
// [0, 1]. All three are Unix nanoseconds, so the ratio is the one
// time.Duration arithmetic yields.
func progress(from, to, t int64) float64 {
	if t <= from {
		return 0
	}
	if t >= to {
		return 1
	}
	return float64(t-from) / float64(to-from)
}

// timeline is a compiled Response.
type timeline struct {
	// peak applies outside working hours, peakWork inside them, and
	// peakWeekend on weekend-like days; unset overrides fall back to peak.
	peak, peakWork, peakWeekend float64
	preRamp, retained           float64
	// Ramp breakpoints: the change builds up to preRamp over [outbreak,
	// lock), completes over [lock, full), holds until relax and decays to
	// retained by end.
	outbreak, lock, full, relax, end int64
	// dip multiplies the response inside [dipStart, dipEnd); 0 = no dip.
	dip              float64
	dipStart, dipEnd int64
	// The outage window is empty for responses without one.
	outStart, outEnd int64
	outResidual      float64
}

// shiftPlan is the compiled pattern-shift ramp of a component: how far
// (0..1) residential usage has moved from the workday profile towards the
// lockdown profile. It ramps up with the lockdown and partially recedes
// after the relaxations, as observed in Figures 2 and 3.
type shiftPlan struct {
	outbreak, lock, full, relax, end int64
}

// wavePlan is a compiled Wave. A wave without a decay window has decay =
// MaxInt64 (full effect persists); one whose End does not follow its decay
// start has end = decay (it drops to retained at once).
type wavePlan struct {
	start, full, decay, end int64
	severity, retained      float64
}

// modPlan is a compiled Modulation.
type modPlan struct {
	start, end      int64
	rampIn, rampOut int64
	factor          float64
}

// componentPlan is one Component lowered for evaluation. It is
// index-aligned with Config.Components and addressed by pointer.
type componentPlan struct {
	c *Component

	bytesPerHourAtBase float64
	weekendLevel       float64
	// workShape and weekendShape tabulate prof.At(h)/prof.Mean() of the
	// component's own profiles; a mean of zero silences the day type.
	workShape, weekendShape [24]float64
	workMean, weekendMean   float64
	// shifts marks components whose workday profile morphs into target
	// along the shift ramp; their workday shape is blended per hour.
	shifts bool
	shift  shiftPlan
	target diurnal.Profile

	resp        timeline
	weekendResp *timeline
	connResp    *timeline
	waves       []wavePlan
	mods        []modPlan

	// hashPrefix is the FNV-1a state after (seed, name); the hour hash
	// absorbs the hour index on top of it.
	hashPrefix uint64

	// The Zipf weights and address pools of the component's source and
	// destination ASes, and the weights as the sampler's pick reads them.
	srcWeights, dstWeights []float64
	srcBelow, dstBelow     []uint64
	srcPools, dstPools     []asdb.AddrPool
	// ports is c.Ports as the sampler's store pass reads it.
	ports []portRow
	// hypergiantShare is the Zipf-weighted fraction of the component's
	// volume originated by hypergiant ASes.
	hypergiantShare float64
	pool            int
	connDir         flowrec.Direction
}

// portRow is what a flow on one of a component's Ports stores: the server
// port on the source side, the protocol, the flags of a completed TCP
// connection, and a mask that zeroes the client's ephemeral port for the
// protocols that have none (GRE, ESP).
type portRow struct {
	srcPort, dstMask uint16
	proto            flowrec.Proto
	tcpFlags         uint8
}

func portRows(ports []flowrec.PortProto) []portRow {
	rows := make([]portRow, len(ports))
	for i, pp := range ports {
		rows[i] = portRow{srcPort: pp.Port, dstMask: 0xffff, proto: pp.Proto}
		switch pp.Proto {
		case flowrec.ProtoGRE, flowrec.ProtoESP:
			rows[i].srcPort, rows[i].dstMask = 0, 0
		case flowrec.ProtoTCP:
			rows[i].tcpFlags = 0x1b
		}
	}
	return rows
}

// pickBelow compiles weights for the sampler's resolve. A weighted choice
// takes the first index i whose running sum w[0]+…+w[i] exceeds the
// uniform draw m/2^53, or the last index; entry i is therefore the
// smallest mantissa m that is not below that sum — ceil(sum·2^53), exact
// because scaling by a power of two is, and 2^53 for a sum that rounding
// carried past 1 — and the last weight needs none. The sums are formed in
// index order, as the linear scan forms them, and never decrease (no
// weight is negative), so counting the entries m has reached finds i.
func pickBelow(w []float64) []uint64 {
	if len(w) <= 1 {
		return nil
	}
	below := make([]uint64, len(w)-1)
	var acc float64
	for i := range below {
		acc += w[i]
		below[i] = uint64(math.Ceil(min(acc, 1) * (1 << 53)))
	}
	return below
}

// compiler carries the per-generator state of one lowering pass.
type compiler struct {
	cfg  *Config
	zipf [][]float64 // zipf[n] = zipfWeights(n), shared between components
	err  error
}

// ns converts a timeline date to Unix nanoseconds. Dates outside the
// int64-nanosecond range (years 1678-2262) cannot be compiled.
func (k *compiler) ns(t time.Time) int64 {
	if y := t.Year(); (y < 1700 || y > 2200) && k.err == nil {
		k.err = fmt.Errorf("synth: timeline date %s is outside the supported range (1700-2200)", t.Format(time.RFC3339))
	}
	return t.UnixNano()
}

func (k *compiler) weights(n int) []float64 {
	for len(k.zipf) <= n {
		k.zipf = append(k.zipf, zipfWeights(len(k.zipf)))
	}
	return k.zipf[n]
}

// pools resolves the address pool of every AS; New has checked that the
// registry knows them all.
func (k *compiler) pools(asns []uint32) []asdb.AddrPool {
	out := make([]asdb.AddrPool, len(asns))
	for i, asn := range asns {
		out[i], _ = k.cfg.Registry.AddrPool(asn)
	}
	return out
}

func (k *compiler) response(r *Response) timeline {
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
	if outbreak.After(lock) {
		outbreak = lock.AddDate(0, 0, -14)
	}
	tl := timeline{
		peak:     r.Peak,
		preRamp:  r.PreRamp,
		retained: r.Retained,
		outbreak: k.ns(outbreak),
		lock:     k.ns(lock),
		full:     k.ns(full),
		relax:    k.ns(relax),
		end:      k.ns(calendar.StudyEnd),
	}
	if tl.peak == 0 {
		tl.peak = 1
	}
	tl.peakWork, tl.peakWeekend = tl.peak, tl.peak
	if r.PeakWorkHours != 0 {
		tl.peakWork = r.PeakWorkHours
	}
	if r.PeakWeekend != 0 {
		tl.peakWeekend = r.PeakWeekend
	}
	if r.Dip != 0 {
		tl.dip = r.Dip
		tl.dipStart = k.ns(calendar.ResolutionReduction.Add(r.Delay))
		tl.dipEnd = k.ns(calendar.RelaxationEurope.Add(r.Delay))
	}
	if r.Outage != nil {
		tl.outStart, tl.outEnd = k.ns(r.Outage.Start), k.ns(r.Outage.End)
		tl.outResidual = r.Outage.Residual
	}
	return tl
}

func (k *compiler) shift(delay time.Duration) shiftPlan {
	lock := calendar.LockdownEurope.Add(delay)
	return shiftPlan{
		outbreak: k.ns(calendar.OutbreakEurope.Add(delay)),
		lock:     k.ns(lock),
		full:     k.ns(lock.AddDate(0, 0, 7)),
		relax:    k.ns(calendar.RelaxationEurope.Add(delay)),
		end:      k.ns(calendar.StudyEnd),
	}
}

func (k *compiler) wave(w *Wave) wavePlan {
	p := wavePlan{
		start:    k.ns(w.Start),
		full:     k.ns(w.Full),
		decay:    math.MaxInt64,
		severity: w.Severity,
		retained: w.Retained,
	}
	decay := w.DecayStart
	if decay.IsZero() {
		decay = w.End
	}
	if !decay.IsZero() {
		p.decay = k.ns(decay)
	}
	p.end = p.decay
	if !w.End.IsZero() && w.End.After(decay) {
		p.end = k.ns(w.End)
	}
	return p
}

func (k *compiler) modulation(m *Modulation) modPlan {
	return modPlan{
		start:   k.ns(m.Start),
		end:     k.ns(m.End),
		rampIn:  int64(m.RampIn),
		rampOut: int64(m.RampOut),
		factor:  m.Factor,
	}
}

// shapeTable tabulates prof.At(h)/prof.Mean(); the table is left zero for
// a profile with zero mean, which evaluation never reads.
func shapeTable(prof *diurnal.Profile) (table [24]float64, mean float64) {
	mean = prof.Mean()
	if mean == 0 {
		return table, 0
	}
	for h := range table {
		table[h] = prof[h] / mean
	}
	return table, mean
}

// blendShape returns prof[ofDay]/prof.Mean() of prof = diurnal.Blend(a, b,
// w), and false where that mean is zero. It runs Blend's, normalise's and
// Mean's operations in their order — clamp w, blend every hour, divide by
// the maximum unless it is zero, sum in hour order and divide by 24 — on
// one array on its stack, where Blend copies two profiles in and one out
// of every call.
func blendShape(a, b *diurnal.Profile, w float64, ofDay int) (float64, bool) {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	var prof diurnal.Profile
	peak := 0.0
	for h := range prof {
		prof[h] = a[h]*(1-w) + b[h]*w
		if prof[h] > peak {
			peak = prof[h]
		}
	}
	if peak != 0 {
		for h := range prof {
			prof[h] /= peak
		}
	}
	var sum float64
	for _, v := range prof {
		sum += v
	}
	mean := sum / 24
	if mean == 0 {
		return 0, false
	}
	return prof[ofDay] / mean, true
}

func (k *compiler) component(c *Component) componentPlan {
	p := componentPlan{
		c:                  c,
		bytesPerHourAtBase: c.BaseGbps * 1e9 / 8 * 3600,
		weekendLevel:       1,
		resp:               k.response(&c.Resp),
		hashPrefix:         fnvString(fnvUint64(fnvOffset64, uint64(k.cfg.Seed)), c.Name),
		srcWeights:         k.weights(len(c.SrcASNs)),
		dstWeights:         k.weights(len(c.DstASNs)),
		ports:              portRows(c.Ports),
		srcPools:           k.pools(c.SrcASNs),
		dstPools:           k.pools(c.DstASNs),
		pool:               c.EndpointPool,
		connDir:            c.Dir,
	}
	if c.WeekendLevel != 0 {
		p.weekendLevel = c.WeekendLevel
	}
	p.srcBelow, p.dstBelow = pickBelow(p.srcWeights), pickBelow(p.dstWeights)
	p.workShape, p.workMean = shapeTable(&c.Workday)
	p.weekendShape, p.weekendMean = shapeTable(&c.Weekend)
	if c.ShiftsPattern {
		p.shifts = true
		p.shift = k.shift(c.Resp.Delay)
		p.target = c.LockdownShape
		if p.target == (diurnal.Profile{}) {
			p.target = diurnal.LockdownWorkday()
		}
	}
	if c.WeekendResp != nil {
		tl := k.response(c.WeekendResp)
		p.weekendResp = &tl
	}
	if c.ConnResp != nil {
		tl := k.response(c.ConnResp)
		p.connResp = &tl
	}
	for i := range c.Waves {
		p.waves = append(p.waves, k.wave(&c.Waves[i]))
	}
	for i := range c.Mods {
		p.mods = append(p.mods, k.modulation(&c.Mods[i]))
	}
	for i, asn := range c.SrcASNs {
		if k.cfg.Registry.IsHypergiant(asn) {
			p.hypergiantShare += p.srcWeights[i]
		}
	}
	if p.pool <= 0 {
		p.pool = 1000
	}
	if c.ConnDir != flowrec.DirUnknown {
		p.connDir = c.ConnDir
	}
	return p
}

// compile lowers cfg.Components into their plans. cfg has been validated:
// names are unique and non-empty, every AS is in the registry and every
// component has a port.
func compile(cfg *Config) ([]componentPlan, error) {
	k := compiler{cfg: cfg}
	plans := make([]componentPlan, len(cfg.Components))
	for i := range cfg.Components {
		plans[i] = k.component(&cfg.Components[i])
	}
	return plans, k.err
}

// FNV-1a, 64 bit. The hour hash is computed incrementally so the state
// after (seed, name) can be folded once per component.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hour holds the calendar facts of one hour that every component shares.
type hour struct {
	start time.Time // UTC, whole hour
	ns    int64     // start in Unix nanoseconds
	index uint64    // hours since the Unix epoch: the hash input
	ofDay int
	// weekend is true on Saturdays, Sundays and the built-in regional
	// holidays; components with scenario holidays extend it.
	weekend bool
	working bool
}

// hourAt describes the hour containing t.
func hourAt(t time.Time) hour {
	t = t.UTC().Truncate(time.Hour)
	ofDay := t.Hour()
	return hour{
		start:   t,
		ns:      t.UnixNano(),
		index:   uint64(t.Unix() / 3600),
		ofDay:   ofDay,
		weekend: calendar.IsWeekend(t) || calendar.IsHoliday(t),
		working: calendar.WorkingHours(ofDay),
	}
}

// hoursOf returns the first whole hour of [from, to) and how many there
// are: the hours eachHour visits.
func hoursOf(from, to time.Time) (time.Time, int) {
	start := from.UTC().Truncate(time.Hour)
	if d := to.Sub(start); d > 0 {
		return start, int((d-1)/time.Hour + 1)
	}
	return start, 0
}

// eachHour calls fn for every whole hour of [from, to).
func eachHour(from, to time.Time, fn func(h *hour)) {
	var h hour
	for t := from.UTC().Truncate(time.Hour); t.Before(to); t = t.Add(time.Hour) {
		h = hourAt(t)
		fn(&h)
	}
}

// ramp returns the fraction (0..1) of the lockdown change applied at t.
func (tl *timeline) ramp(t int64) float64 {
	switch {
	case t < tl.outbreak:
		return 0
	case t < tl.lock:
		return tl.preRamp * progress(tl.outbreak, tl.lock, t)
	case t < tl.full:
		return tl.preRamp + (1-tl.preRamp)*progress(tl.lock, tl.full, t)
	case t < tl.relax:
		return 1
	default:
		return 1 - (1-tl.retained)*progress(tl.relax, tl.end, t)
	}
}

// peakFor selects the applicable peak multiplier for the day type and
// time of day.
func (tl *timeline) peakFor(h *hour, weekend bool) float64 {
	switch {
	case weekend:
		return tl.peakWeekend
	case h.working:
		return tl.peakWork
	default:
		return tl.peak
	}
}

// at returns the response's volume multiplier at t for the given peak.
func (tl *timeline) at(t int64, peak float64) float64 {
	m := 1 + (peak-1)*tl.ramp(t)
	if tl.dip != 0 && t >= tl.dipStart && t < tl.dipEnd {
		m *= tl.dip
	}
	if t >= tl.outStart && t < tl.outEnd {
		m *= tl.outResidual
	}
	if m < 0 {
		m = 0
	}
	return m
}

func (s *shiftPlan) at(t int64) float64 {
	switch {
	case t < s.lock:
		return 0.15 * progress(s.outbreak, s.lock, t)
	case t < s.full:
		return 0.15 + 0.85*progress(s.lock, s.full, t)
	case t < s.relax:
		return 1
	default:
		return 1 - 0.4*progress(s.relax, s.end, t)
	}
}

// frac returns the wave's effect fraction (0..1 ramp, then decay to
// retained) at t.
func (w *wavePlan) frac(t int64) float64 {
	switch {
	case t < w.start:
		return 0
	case t < w.full:
		return progress(w.start, w.full, t)
	case t < w.decay:
		return 1
	case t < w.end:
		return 1 - (1-w.retained)*progress(w.decay, w.end, t)
	default:
		return w.retained
	}
}

// at returns the wave's volume multiplier for a component whose
// applicable peak multiplier at t is peak.
func (w *wavePlan) at(t int64, peak float64) float64 {
	f := w.frac(t)
	if f == 0 {
		return 1
	}
	m := 1 + (peak-1)*w.severity*f
	if m < 0 {
		m = 0
	}
	return m
}

// at returns the modulation's multiplier at t: 1 outside the window,
// factor at full effect, linearly interpolated across the ramp edges.
func (m *modPlan) at(t int64) float64 {
	if t < m.start || t >= m.end {
		return 1
	}
	eff := 1.0
	if m.rampIn > 0 {
		eff = progress(m.start, m.start+m.rampIn, t)
	}
	if m.rampOut > 0 {
		out := progress(m.end-m.rampOut, m.end, t)
		if rem := 1 - out; rem < eff {
			eff = rem
		}
	}
	return 1 + (m.factor-1)*eff
}

// multiplier evaluates response tl at hour h and folds the component's
// scenario overlays in; the waves reuse the response's applicable peak.
func (p *componentPlan) multiplier(tl *timeline, h *hour, weekend bool) float64 {
	peak := tl.peakFor(h, weekend)
	m := tl.at(h.ns, peak)
	if len(p.waves) != 0 || len(p.mods) != 0 {
		o := 1.0
		for i := range p.waves {
			o *= p.waves[i].at(h.ns, peak)
		}
		for i := range p.mods {
			o *= p.mods[i].at(h.ns)
		}
		m *= o
	}
	return m
}

// componentHour is one component-hour evaluated once: everything the
// series, the volume queries and the flow sampler need of it.
type componentHour struct {
	// weekend reports a weekend-like day for this component: an actual
	// weekend, a built-in holiday or a scenario-declared one.
	weekend bool
	// hash is FNV-1a over (seed, name, hour index): the volume noise and
	// the sampler's seed.
	hash uint64
	// volume is the component's bytes for the hour.
	volume float64
	// respMult is the volume response multiplier (overlays included); the
	// connection multiplier equals it unless a ConnResp applies.
	respMult float64
	// connMult and flows are the connection-count multiplier and the
	// number of flow records; only the sampler's evaluation (withFlows)
	// fills them in.
	connMult float64
	flows    int
}

// evaluate computes the component's volume for hour h.
func (p *componentPlan) evaluate(h *hour) componentHour {
	e := componentHour{
		weekend: h.weekend || p.c.Holidays.Contains(h.start),
		hash:    fnvUint64(p.hashPrefix, h.index),
	}

	// Diurnal shape.
	var shape float64
	level := 1.0
	switch {
	case e.weekend:
		if p.weekendMean == 0 {
			return e
		}
		shape, level = p.weekendShape[h.ofDay], p.weekendLevel
	case p.shifts:
		var ok bool
		if shape, ok = blendShape(&p.c.Workday, &p.target, p.shift.at(h.ns), h.ofDay); !ok {
			return e
		}
	default:
		if p.workMean == 0 {
			return e
		}
		shape = p.workShape[h.ofDay]
	}

	// Lockdown response.
	tl := &p.resp
	if e.weekend && p.weekendResp != nil {
		tl = p.weekendResp
	}
	e.respMult = p.multiplier(tl, h, e.weekend)

	v := p.bytesPerHourAtBase * shape * level * e.respMult
	// A small deterministic perturbation (±3%) gives series a realistic
	// texture without breaking reproducibility.
	v *= 1 + (float64(e.hash%10000)/10000-0.5)*0.06
	if v < 0 {
		v = 0
	}
	e.volume = v
	return e
}

// flowBasePerHour is the baseline number of flow records the sampler emits
// per component and hour (before shape/response scaling and FlowScale).
// Flow counts track the component's connection response so connection-level
// analyses (Section 7, Figure 8, Figure 12) see the documented growth
// factors; bytes are distributed over however many records are emitted, so
// volume analyses remain consistent with the volume model.
const flowBasePerHour = 40

// withFlows completes an evaluated component-hour for the sampler with
// its connection-count multiplier and number of flow records; hours
// without volume emit none. The multiplier is the dedicated connection
// response on workdays if the component has one, otherwise the volume
// response — overlays included either way, so flow counts follow outages
// and flash events the way volumes do.
//
// A raw count of exactly zero — a silenced profile hour or a scenario
// outage — yields zero records; a fractional count below one is clamped to
// a single record (the built-in profiles and responses are strictly
// positive, so the raw count is never zero where the volume model emits
// bytes; TestFlowCountClampOnlyTrimsLiveHours pins that invariant).
func (p *componentPlan) withFlows(h *hour, e componentHour, flowScale float64) componentHour {
	if e.volume <= 0 {
		return e
	}
	e.connMult = e.respMult
	if p.connResp != nil && !e.weekend {
		e.connMult = p.multiplier(p.connResp, h, false)
	}
	shape, mean := p.workShape[h.ofDay], p.workMean
	if e.weekend {
		shape, mean = p.weekendShape[h.ofDay], p.weekendMean
	}
	if mean == 0 {
		return e
	}
	raw := flowBasePerHour * shape * e.connMult * flowScale
	if raw <= 0 {
		return e
	}
	e.flows = int(raw)
	if e.flows < 1 {
		e.flows = 1
	}
	return e
}
