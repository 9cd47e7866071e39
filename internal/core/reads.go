package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// This file is the reader table of the flow batches. Every experiment
// that reads flow batches declares, where it registers, the keys it reads:
// the kind, the vantage point, the days, and the reduction it takes of
// each day — a fold of the day's rows into a small partial. No experiment
// reads a batch, nor names a key, itself: the engine takes the declared
// keys before the experiment runs (readPlan.takeReads, scan.go) and hands
// it the partials. Some days have two readers — Figures 7a and 9 share 13
// ISP-CE workdays, Figures 7b and 9 share 15 IXP-CE workdays, Figure 10
// and the VPN ablation share the 7 days of the March week — so a run plans
// its reads before it starts (newReadPlan): one slot per declared key,
// with the run's reductions of the key and the takes each has left. The
// slot's first take streams the key's rows through every reduction, piece
// by piece, and keeps the partials (readPlan.fill); no day batch is built
// on the way, and each partial is dropped at its last take. The plan dies
// with the run, so a run that ends, fails or is cancelled leaves nothing
// behind, and the next run draws every key afresh. Concurrent runs plan,
// and draw, apart.

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

// reduction is a per-day fold of a key's rows into a small partial
// aggregate that its readers merge over their days. Partials hold exact
// integers (uint64 byte sums, row counts) or sets, so a fold is the same
// at any cut of the day into pieces, and a day folded once and merged by
// two readers gives each what folding it itself would. A reduction may be
// shared: the VPN ablation reads Figure 10's, whose working-hours and
// other-hours sums tile the day.
type reduction struct {
	owner string // the experiment that declares it, named in its trace records
	// hours, when set, are the hours of day [from, to) the reduction
	// reads of a key, fewer than the key's window: its fold skips the
	// pieces of the other hours, and a run that plans it on a key whose
	// window (FlowKey.Hours) does not hold them is refused (newReadPlan).
	hours [2]int
	// build makes the reduction's function on a dataset, once per run
	// (readPlan.funcs): the tables and models it folds with. The function
	// never draws a flow batch, so it can run inside another key's draw.
	build func(d *Dataset) (reduceFunc, error)
}

// reduceFunc starts the reduction's fold of the key k.
type reduceFunc func(k FlowKey) fold

// fold is one reduction's fold of one key. add takes the key's rows a
// piece at a time, in hour order, each piece within the hour of day it is
// given; it may neither keep nor modify a piece. done returns the partial,
// which is shared by every reader of the key and must not be modified.
type fold struct {
	add  func(hour int, piece *flowrec.Batch)
	done func() any
}

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
// key for every experiment that declares it. A reduction that reads hours
// outside a key's window is refused.
func newReadPlan(d *Dataset, exps []Experiment) (*readPlan, error) {
	p := &readPlan{d: d, slots: make(map[FlowKey]*planSlot), funcs: make(map[*reduction]*memo[reduceFunc])}
	for _, e := range exps {
		for _, r := range e.reads {
			if p.funcs[r.by] == nil {
				p.funcs[r.by] = new(memo[reduceFunc])
			}
			for _, k := range r.keys() {
				if h := r.by.hours; h != [2]int{} {
					if w0, w1 := k.Hours(); h[0] < w0 || h[1] > w1 || h[0] > h[1] {
						return nil, fmt.Errorf("core: %s reads hours [%d, %d) of %s, outside its window [%d, %d)", r.by.owner, h[0], h[1], k, w0, w1)
					}
				}
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
	return p, nil
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
// of reduction asked: it starts the fold of every reduction the plan holds
// on the key, streams the key's rows through them (Dataset.stream) and
// keeps the partials; of the rows only their count and columns stay, for
// the batch accounting. With tracing on, each reduction other than the one
// asked leaves a "reduce" record naming its owner, the key and its fold
// seconds on the key, summed over the pieces, so the time one experiment
// spends folding a day for another shows as such.
func (p *readPlan) fill(k FlowKey, s *planSlot, asked *reduction) error {
	if p.d.filled != nil {
		p.d.filled(k)
	}
	folds := make([]fold, len(s.reads))
	for i := range s.reads {
		r := s.reads[i].r
		f, err := p.funcs[r].get(nil, func() (reduceFunc, error) { return r.build(p.d) })
		if err != nil {
			return err
		}
		folds[i] = f(k)
	}
	var secs []time.Duration // per fold, when traced
	if p.d.tracer != nil {
		secs = make([]time.Duration, len(folds))
	}
	rows, cols, err := p.d.stream(k, func(hour int, piece *flowrec.Batch) {
		for i := range folds {
			if secs == nil || s.reads[i].r == asked {
				folds[i].add(hour, piece)
				continue
			}
			t0 := time.Now()
			folds[i].add(hour, piece)
			secs[i] += time.Since(t0)
		}
	})
	if err != nil {
		return err
	}
	for i := range folds {
		s.reads[i].p = folds[i].done()
		if r := s.reads[i].r; secs != nil && r != asked {
			p.d.tracer.Instant("reduce", "scan", map[string]any{"owner": r.owner, "key": k.String(), "fold_s": secs[i].Seconds()})
		}
	}
	s.rows, s.cols = rows, cols
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
