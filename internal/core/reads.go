package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// This file is the reader table of the flow batches. Every experiment
// that reads flow batches declares, where it registers, the keys it reads:
// the kind, the vantage point, the days, and the reduction it takes of
// each day — a per-day fold of the batch into a small partial. No
// experiment reads a batch, nor names a key, itself: the engine takes the
// declared keys before the experiment runs (readPlan.takeReads, scan.go)
// and hands it the partials. Some days have two readers — Figures 7a
// and 9 share 13 ISP-CE workdays, Figures 7b and 9 share 15 IXP-CE
// workdays, Figure 10 and the VPN ablation share the 7 days of the March
// week — so a run plans its reads before it starts (newReadPlan): one slot
// per declared key, with the run's reductions of the key and the takes
// each has left. The slot's first take draws the batch, runs every
// reduction on it, keeps the partials and drops the batch (readPlan.fill);
// each partial is dropped at its last take. The plan dies with the run, so
// a run that ends, fails or is cancelled leaves nothing behind, and the
// next run draws every key afresh. Concurrent runs plan, and draw, apart.

// dayRead declares the flow batches of one kind an experiment reads at
// one vantage point (and, for KindComponentFlows, one component): one key
// for every day of days, each taken once, as reduction by, by the
// experiment's declared-read pass.
type dayRead struct {
	kind FlowKind
	vp   synth.VantagePoint
	name string
	days []time.Time
	by   *reduction
}

// keys returns the keys the read names, in day order.
func (r dayRead) keys() []FlowKey {
	out := make([]FlowKey, len(r.days))
	for i, day := range r.days {
		out[i] = FlowKey{Kind: r.kind, VP: r.vp, Name: r.name, Hour: DayOf(day)}
	}
	return out
}

// reduction is a per-day fold of a flow batch into a small partial
// aggregate that its readers merge over their days. Partials hold exact
// integers (uint64 byte sums, row counts), so a day folded once and
// merged by two readers gives each what folding it itself would. A
// reduction may be shared: the VPN ablation reads Figure 10's, whose
// working-hours and other-hours sums tile the day.
type reduction struct {
	owner string // the experiment that declares it, named in its trace spans
	// build makes the reduction's function on a dataset, once per run
	// (readPlan.funcs): the tables and models it folds with. The function
	// never draws a flow batch, so it can run inside another key's draw.
	build func(d *Dataset) (reduceFunc, error)
}

// reduceFunc folds the batch k names into its partial. The partial is
// shared by every reader of k and must not be modified.
type reduceFunc func(k FlowKey, b *flowrec.Batch) (any, error)

// readPlan is the flow state of one run: a slot for every key its
// experiments declare, and the function of every reduction they take,
// built on its first use. Its maps are complete before the run starts and
// never written after, so takes find their slot and fills their function
// without a lock.
type readPlan struct {
	d     *Dataset
	slots map[FlowKey]*planSlot
	funcs map[*reduction]*memo[reduceFunc]
	mu    sync.Mutex // guards every slot's reads once the slot is drawn
}

// planSlot is one key of a run: its first take draws the batch inside once
// (readPlan.fill), which keeps the partials and drops the batch.
type planSlot struct {
	once  sync.Once
	err   error // the draw failed
	reads []planRead
	// rows and cols of the batch as the source delivered it, for the
	// batch accounting (batchMB).
	rows int
	cols flowrec.Columns
}

// planRead is a reduction the run declares on a key: the takes of it not
// yet made and, from the key's draw to the last of them, its partial.
type planRead struct {
	r    *reduction
	left int
	p    any
}

// newReadPlan plans the reads of exps on d: one take of a reduction of a
// key for every experiment that declares it.
func newReadPlan(d *Dataset, exps []Experiment) *readPlan {
	p := &readPlan{d: d, slots: make(map[FlowKey]*planSlot), funcs: make(map[*reduction]*memo[reduceFunc])}
	for _, e := range exps {
		for _, r := range e.reads {
			if p.funcs[r.by] == nil {
				p.funcs[r.by] = new(memo[reduceFunc])
			}
			for _, k := range r.keys() {
				s := p.slots[k]
				if s == nil {
					s = new(planSlot)
					p.slots[k] = s
				}
				if i := s.read(r.by); i >= 0 {
					s.reads[i].left++
				} else {
					s.reads = append(s.reads, planRead{r: r.by, left: 1})
				}
			}
		}
	}
	return p
}

// read returns the index of reduction r among the slot's reads, or -1. It
// reads no field but r, which no take writes.
func (s *planSlot) read(r *reduction) int {
	for i := range s.reads {
		if s.reads[i].r == r {
			return i
		}
	}
	return -1
}

// take returns reduction r of the batch k names. The slot's first take
// draws the batch (fill); every take counts against r's takes, the last of
// which drops the partial. A take the plan does not hold is an error.
func (p *readPlan) take(k FlowKey, r *reduction) (any, error) {
	s, i := p.slots[k], -1
	if s != nil {
		i = s.read(r)
	}
	if i < 0 {
		return nil, fmt.Errorf("core: %s's reduction of %s is not planned", r.owner, k)
	}
	s.once.Do(func() { s.err = p.fill(k, s, r) })
	if s.err != nil {
		return nil, s.err
	}
	p.mu.Lock()
	x := &s.reads[i]
	x.left--
	v, left := x.p, x.left
	if left == 0 {
		x.p = nil
	}
	p.mu.Unlock()
	if left < 0 {
		return nil, fmt.Errorf("core: %s's reduction of %s taken more often than planned", r.owner, k)
	}
	if p.d.taken != nil {
		p.d.taken(k, r, v)
	}
	return v, nil
}

// fill is the draw of slot s of k, run inside its once by the first take,
// of reduction asked: it asks the flow source for the batch, runs every
// reduction the plan holds on the key, keeps the partials and drops the
// batch; only its rows and columns stay, for the batch accounting. A
// reduction other than the one asked runs in a "reduce" trace span naming
// its owner and the key, so the time one experiment spends folding a day
// for another shows as such.
func (p *readPlan) fill(k FlowKey, s *planSlot, asked *reduction) error {
	b, err := p.d.draw(k)
	if err != nil {
		return err
	}
	for i := range s.reads {
		r := s.reads[i].r
		var sp obs.Span
		if r != asked {
			sp = p.d.tracer.Start("reduce", "scan")
		}
		f, err := p.funcs[r].get(nil, func() (reduceFunc, error) { return r.build(p.d) })
		var v any
		if err == nil {
			v, err = f(k, b)
		}
		if sp.Active() {
			sp.EndArgs(map[string]any{"owner": r.owner, "key": k.String()})
		}
		if err != nil {
			return err
		}
		s.reads[i].p = v
	}
	s.rows, s.cols = b.Len(), b.Columns()
	return nil
}

// batchMB is the flow-batch memory reads stand for, in MiB: over their
// distinct keys, the rows of each drawn batch at the width of the columns
// it stores. It reads the slots after a pass that took every key of reads,
// so each slot's draw is done, and being over a set it reads the same
// however the pass was scheduled.
func (p *readPlan) batchMB(reads []dayRead) float64 {
	seen := make(map[FlowKey]bool)
	var bytes int64
	for _, r := range reads {
		for _, k := range r.keys() {
			if !seen[k] {
				seen[k] = true
				s := p.slots[k]
				bytes += int64(s.rows) * int64(s.cols.RowBytes())
			}
		}
	}
	return float64(bytes) / (1 << 20)
}

// weekDays returns the days of the weeks in order, only the workdays when
// workdays is set.
func weekDays(weeks []calendar.Week, workdays bool) []time.Time {
	var out []time.Time
	for _, w := range weeks {
		for _, day := range calendar.Days(w.Start, w.End) {
			if !workdays || calendar.IsWorkday(day) {
				out = append(out, day)
			}
		}
	}
	return out
}

// weekOf returns the index of the week of weeks that holds day, or -1.
func weekOf(weeks []calendar.Week, day time.Time) int {
	return slices.IndexFunc(weeks, func(w calendar.Week) bool { return !day.Before(w.Start) && day.Before(w.End) })
}
