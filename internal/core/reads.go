package core

import (
	"fmt"
	"slices"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// This file is the reader table of the flow batches. Every experiment
// that reads flow batches declares, where it registers, the keys it reads:
// the kind, the vantage point and the days. Some days have two readers —
// Figures 7a and 9 share 13 ISP-CE workdays, Figures 7b and 9 share 15
// IXP-CE workdays, Figure 10 and the VPN ablation share the 7 days of the
// March week — and a reader of such a day declares a reduction, a per-day
// fold of the batch into a small partial, instead of reading the batch.
// The first draw of a key runs every reduction declared on it and keeps
// the partials on the cache entry (Dataset.fill), so the second reader
// never needs the batch back.

// dayRead declares the flow batches of one kind an experiment reads at
// one vantage point (and, for KindComponentFlows, one component): one key
// for every day of days. by, when set, is the reduction the experiment
// takes of each day in place of the batch (Env.partial); a read without
// one draws the batch.
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
	// build makes the reduction's function for one dataset, once: the
	// tables and models it folds with. The function never draws a flow
	// batch, so it can run inside another entry's once.
	build func(d *Dataset) (reduceFunc, error)
}

// reduceFunc folds the batch k names into its partial. The partial is
// shared by every reader of k and must not be modified.
type reduceFunc func(k FlowKey, b *flowrec.Batch) (any, error)

// declare enables the reductions the experiments declare on the keys they
// read. The engine calls it before it runs them, so a key's first draw
// folds it for every reader in the run. Declarations only accumulate: an
// engine that runs experiments one at a time holds their union, and a key
// drawn before its reduction was declared is folded where it is read.
func (d *Dataset) declare(exps []Experiment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range exps {
		for _, r := range e.reads {
			if r.by == nil {
				continue
			}
			for _, k := range r.keys() {
				if !slices.Contains(d.readers[k], r.by) {
					d.readers[k] = append(d.readers[k], r.by)
				}
			}
		}
	}
}

// reduce runs r on the batch k names, building r's function on its first
// use in this dataset.
func (d *Dataset) reduce(r *reduction, k FlowKey, b *flowrec.Batch) (any, error) {
	d.mu.Lock()
	m := d.reducers[r]
	if m == nil {
		m = new(memo[reduceFunc])
		d.reducers[r] = m
	}
	d.mu.Unlock()
	f, err := m.get(nil, func() (reduceFunc, error) { return r.build(d) })
	if err != nil {
		return nil, err
	}
	return f(k, b)
}

// partial returns reduction r of the batch k names. When r was declared
// on k before k's first draw, that draw kept the partial, and it is
// returned without touching the batch — which may long have been evicted
// — though the lookup still counts, and the entry still reports to the
// pin's drawn set, as a read of the batch does. Otherwise the batch is
// drawn through pin and reduced here.
func (d *Dataset) partial(k FlowKey, r *reduction, pin *Pin) (any, error) {
	fe, err := d.entry(k, pin, r)
	if err != nil {
		return nil, err
	}
	defer d.enforceBudget()
	if p, ok := fe.partials[r]; ok {
		if pin != nil && pin.drawn != nil {
			pin.drawn.add(fe)
		}
		return p, nil
	}
	b, err := d.acquire(fe, pin)
	if err != nil {
		return nil, err
	}
	return d.reduce(r, k, b)
}

// Reread draws every flow batch the dataset holds once more, unpinned —
// an evicted one comes back from its span or its source, as on any fault
// — and compares it, in its key's columns, with the batch want delivers
// for the key. It returns the number of batches compared. A suite run
// reads no batch twice, so the golden tests read the fault path of a
// budgeted run with this; it must be called before Close.
func (d *Dataset) Reread(want FlowSource) (int, error) {
	d.mu.Lock()
	keys := make([]FlowKey, 0, len(d.flows))
	for k := range d.flows {
		keys = append(keys, k)
	}
	d.mu.Unlock()
	for _, k := range keys {
		got, err := d.batch(k, nil)
		if err != nil {
			return 0, err
		}
		ref, err := fetch(want, k)
		if err != nil {
			return 0, err
		}
		if cols := k.Columns(); !got.Project(cols).Equal(ref.Project(cols)) {
			return 0, fmt.Errorf("core: %s read back differs from a fresh draw", k)
		}
	}
	return len(keys), nil
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
