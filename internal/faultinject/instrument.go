package faultinject

import "lockdown/internal/obs"

// Instrument registers the relay's fault accounting with reg as
// scrape-time snapshots of the same counts Stats() reports — the
// lockdown_chaos_* families read the mutex-guarded per-stream counts, so
// /metrics and the CLI's chaos summary can never disagree.
func (r *Relay) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	total := func(pick func(Counts) int64) func() float64 {
		return func() float64 { return float64(pick(r.Stats().Total)) }
	}
	reg.CounterFunc("lockdown_chaos_seen_total",
		"Datagrams that entered the chaos relay.",
		total(func(c Counts) int64 { return c.Seen }))
	reg.CounterFunc("lockdown_chaos_forwarded_total",
		"Datagrams the relay put on the wire (duplicates counted).",
		total(func(c Counts) int64 { return c.Forwarded }))
	reg.CounterFunc("lockdown_chaos_dropped_total",
		"Datagrams dropped by the fault schedule.",
		total(func(c Counts) int64 { return c.Dropped }))
	reg.CounterFunc("lockdown_chaos_duplicated_total",
		"Datagrams duplicated by the fault schedule.",
		total(func(c Counts) int64 { return c.Duplicated }))
}

// SetTracer attaches a tracer; every injected fault is then recorded as
// an instant event (fault-drop or fault-dup) with its stream.
func (r *Relay) SetTracer(t *obs.Tracer) {
	r.mu.Lock()
	r.tracer = t
	r.mu.Unlock()
}
