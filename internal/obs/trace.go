package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer writes Chrome trace_event JSON (the `chrome://tracing` /
// Perfetto format): one complete ("X") event per finished span, instant
// ("i") events for point-in-time occurrences, and thread-name metadata so
// the lanes read as a worker view. Load the file at https://ui.perfetto.dev
// or chrome://tracing.
//
// Spans are value types carrying their own start time, so a Span on a nil
// *Tracer still measures durations — the engine derives the
// `_runtime/wall-ms` stamp from the same Span that emits the experiment's
// trace event, which is what keeps the timing table, the JSON output and
// the trace file on one clock.
//
// Lane (tid) allocation: every span takes the smallest free virtual
// thread id and returns it when it ends, so concurrent spans occupy a
// compact set of lanes (like a worker pool view) and sequential spans
// reuse lane 1.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // underlying file, when Create opened it
	epoch  time.Time
	events int64
	first  bool
	closed bool
	named  map[int]bool // lanes that already carry thread_name metadata
	free   []int        // released lanes, kept sorted ascending
	next   int          // next never-used lane
}

// NewTracer starts a tracer writing to w. The caller must Close it to
// finish the JSON document.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		w:     bufio.NewWriter(w),
		epoch: time.Now(),
		first: true,
		named: make(map[int]bool),
		next:  1,
	}
	t.w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	t.emitLocked(traceEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": "lockdown"}})
	return t
}

// Create opens (truncating) a trace file at path.
func Create(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	t := NewTracer(f)
	t.c = f
	return t, nil
}

// Close terminates the JSON document and closes the underlying file (when
// Create opened one). Spans ended after Close are measured but not
// written. Close is idempotent.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.w.WriteString("\n]}\n")
	err := t.w.Flush()
	t.mu.Unlock()
	if t.c != nil {
		if cerr := t.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Events returns how many events have been written so far.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// traceEvent is the wire schema of one trace_event entry. Emission goes
// through encoding/json, so every event in the file parses by
// construction; the round-trip test then checks the nesting invariants.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// emitLocked writes one event; the caller holds t.mu.
func (t *Tracer) emitLocked(ev traceEvent) {
	if t.closed {
		return
	}
	blob, err := json.Marshal(ev)
	if err != nil {
		return // unmarshalable arg; drop the event rather than the file
	}
	if !t.first {
		t.w.WriteString(",\n")
	}
	t.first = false
	t.w.Write(blob)
	t.events++
}

// micros converts a timestamp to trace microseconds since the tracer
// epoch.
func (t *Tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// acquireLane takes the smallest free virtual thread id and names its
// lane on first use.
func (t *Tracer) acquireLane() int {
	t.mu.Lock()
	var tid int
	if len(t.free) > 0 {
		tid = t.free[0]
		t.free = t.free[1:]
	} else {
		tid = t.next
		t.next++
	}
	if !t.named[tid] {
		t.named[tid] = true
		t.emitLocked(traceEvent{Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]any{"name": "lane " + strconv.Itoa(tid)}})
	}
	t.mu.Unlock()
	return tid
}

// releaseLane returns a lane to the freelist.
func (t *Tracer) releaseLane(tid int) {
	t.mu.Lock()
	i := sort.SearchInts(t.free, tid)
	t.free = append(t.free, 0)
	copy(t.free[i+1:], t.free[i:])
	t.free[i] = tid
	t.mu.Unlock()
}

// Span is one in-flight measurement. It is a small value: copying is
// cheap and a Span from a nil Tracer still measures wall time, it just
// emits nothing.
type Span struct {
	tr    *Tracer
	name  string
	cat   string
	tid   int
	start time.Time
}

// Start opens a span on its own lane. Valid on a nil tracer.
func (t *Tracer) Start(name, cat string) Span {
	s := Span{tr: t, name: name, cat: cat, start: time.Now()}
	if t != nil {
		s.tid = t.acquireLane()
	}
	return s
}

// Active reports whether ending this span will emit an event — the guard
// hot paths use before building args.
func (s Span) Active() bool { return s.tr != nil }

// End closes the span, emits its complete event and returns the measured
// duration (also on a nil tracer, where nothing is emitted).
func (s Span) End() time.Duration { return s.EndArgs(nil) }

// EndArgs is End with event arguments attached (shown in the Perfetto
// slice details). Callers on hot paths should guard with Active before
// building the map.
func (s Span) EndArgs(args map[string]any) time.Duration {
	d := time.Since(s.start)
	t := s.tr
	if t == nil {
		return d
	}
	dur := float64(d) / float64(time.Microsecond)
	t.mu.Lock()
	t.emitLocked(traceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		TS: t.micros(s.start), Dur: &dur, TID: s.tid, Args: args,
	})
	t.mu.Unlock()
	t.releaseLane(s.tid)
	return d
}

// Instant emits a point-in-time event (thread-scoped, lane 0 — Perfetto
// renders them as markers). Valid on a nil tracer.
func (t *Tracer) Instant(name, cat string, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(traceEvent{Name: name, Cat: cat, Ph: "i", TS: t.micros(time.Now()), S: "t", Args: args})
	t.mu.Unlock()
}
