package core

import (
	"slices"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// This file is the reader table of the flow batches. Every experiment
// that reads flow batches declares, where it registers, the keys it reads:
// the kind, the vantage point, the days, and the reduction it takes of
// each day — a per-day fold of the batch into a small partial. No
// experiment reads a batch, nor names a key, itself: the engine takes the
// declared keys before the experiment runs (Dataset.takeReads, scan.go)
// and hands it the partials. Some days have two readers — Figures 7a
// and 9 share 13 ISP-CE workdays, Figures 7b and 9 share 15 IXP-CE
// workdays, Figure 10 and the VPN ablation share the 7 days of the March
// week — and the first draw of a key runs every reduction declared on it,
// keeps the partials on the cache entry and drops the batch
// (Dataset.fill). Each partial is dropped in turn when the last reader
// that declared it has taken it (Dataset.take), so a suite run ends
// holding neither batches nor partials, and the next run on the dataset
// draws each key afresh, as the first did. A run that fails or is
// cancelled withdraws the takes it did not make (Dataset.withdraw), so it
// ends holding nothing either.

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
	// build makes the reduction's function for one dataset, once: the
	// tables and models it folds with. The function never draws a flow
	// batch, so it can run inside another entry's once.
	build func(d *Dataset) (reduceFunc, error)
}

// reduceFunc folds the batch k names into its partial. The partial is
// shared by every reader of k and must not be modified.
type reduceFunc func(k FlowKey, b *flowrec.Batch) (any, error)

// reader is a reduction declared on a key, with the number of its
// declared takes not yet made nor withdrawn.
type reader struct {
	r    *reduction
	left int
}

// declare counts the reductions the experiments declare on the keys they
// read, one take per experiment that declares it. The engine calls it
// before it runs them, so a key's first draw folds it for every reader in
// the run. A key drawn before its reduction was declared is drawn again
// where it is taken.
func (d *Dataset) declare(exps []Experiment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range exps {
		for _, r := range e.reads {
			for _, k := range r.keys() {
				d.addReader(k, r.by)
			}
		}
	}
}

// addReader counts one more declared take of reduction r of k. Called with
// d.mu held.
func (d *Dataset) addReader(k FlowKey, r *reduction) {
	rs := d.readers[k]
	if i := slices.IndexFunc(rs, func(x reader) bool { return x.r == r }); i >= 0 {
		rs[i].left++
		return
	}
	d.readers[k] = append(rs, reader{r: r, left: 1})
}

// take returns the partial of reduction r that the first draw of fe kept,
// if it kept one, and counts the take against r's declared readers of the
// key (spend): the last of them drops the partial, as does a take of a
// reduction not declared on the key, which the draw ran for its asker
// alone. The take that leaves an entry with no partial spends it.
func (d *Dataset) take(fe *flowEntry, r *reduction) (any, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := fe.partials[r]
	if d.spend(fe.key, r) {
		delete(fe.partials, r)
	}
	if len(fe.partials) == 0 {
		fe.spent = true
	}
	return p, ok
}

// withdraw takes back one declared take of reduction r of k that no
// reader will make: a failed or cancelled run withdraws what it did not
// take. The last declared take drops the partial a draw kept for it, and
// spends the entry if that was its last; a draw still running keeps no
// partial of a reduction whose takes are all withdrawn (fill).
func (d *Dataset) withdraw(k FlowKey, r *reduction) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !slices.ContainsFunc(d.readers[k], func(x reader) bool { return x.r == r }) || !d.spend(k, r) {
		return
	}
	if fe := d.flows[k]; fe != nil && fe.partials != nil {
		delete(fe.partials, r)
		if len(fe.partials) == 0 {
			fe.spent = true
		}
	}
}

// spend counts one take of reduction r of k against its declared readers
// and reports whether the partial goes with it: the take was the last
// declared one, or r was not declared on k. Called with d.mu held.
func (d *Dataset) spend(k FlowKey, r *reduction) bool {
	rs := d.readers[k]
	switch i := slices.IndexFunc(rs, func(x reader) bool { return x.r == r }); {
	case i < 0:
		return true
	case rs[i].left > 1:
		rs[i].left--
		return false
	default:
		if rs = slices.Delete(rs, i, i+1); len(rs) == 0 {
			delete(d.readers, k)
		} else {
			d.readers[k] = rs
		}
		return true
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

// partial takes reduction r of the batch k names. The first draw of k,
// or of its fresh entry once the last one was spent, kept the partial, and
// it is returned without the batch — which the draw dropped — though the
// lookup still counts, and the entry still reports to drawn (the
// experiment's batch accounting, nil for none), as a read of the batch
// does. Otherwise (r was declared after the draw, or another take of it
// got the partial first) the batch is drawn again, reduced here and
// dropped like the first.
func (d *Dataset) partial(k FlowKey, r *reduction, drawn *drawnSet) (any, error) {
	fe, err := d.entry(k, r)
	if err != nil {
		return nil, err
	}
	p, ok := d.take(fe, r)
	if !ok {
		b, err := d.draw(k)
		if err != nil {
			return nil, err
		}
		if p, err = d.reduce(r, k, b); err != nil {
			return nil, err
		}
	}
	if drawn != nil {
		drawn.add(fe)
	}
	if d.taken != nil {
		d.taken(k, r, p)
	}
	return p, nil
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
