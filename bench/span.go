package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// span is one timed call into a layer, recorded from the harness's side
// of the call. Trace is the pass the span belongs to (one id per workload
// pass); Parent is the id of the span that caused it, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rows    int64  `json:"rows,omitempty"`

	tr *tracer
}

func (s *span) interval() interval { return interval{s.StartNs, s.EndNs} }
func (s *span) seconds() float64   { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps finished spans in memory; they are written out once, when
// the run ends.
type tracer struct {
	epoch time.Time
	trace string

	mu    sync.Mutex
	next  int
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil for a root).
func (t *tracer) start(name string, parent *span) *span {
	t.mu.Lock()
	t.next++
	s := &span{ID: t.next, Trace: t.trace, Name: name, tr: t}
	t.mu.Unlock()
	if parent != nil {
		s.Parent = parent.ID
	}
	s.StartNs = int64(time.Since(t.epoch))
	return s
}

// end closes the span and files it.
func (s *span) end() {
	s.EndNs = int64(time.Since(s.tr.epoch))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

// children returns the finished spans whose parent is p and whose name
// starts with prefix.
func (t *tracer) children(p *span, prefix string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Parent == p.ID && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// timedSource is the timing decorator around a workload's FlowSource: one
// source.* span per call, parented to whichever pass is running, with the
// rows the call returned. It is the only place the harness can see the
// generator (or the bridge) from outside the program.
type timedSource struct {
	inner core.FlowSource
	tr    *tracer
	pass  atomic.Pointer[span]

	// keep is how many of the first batches to hold on to for the codec
	// timing; the dataset cache owns them and keeps them alive anyway.
	keep int
	mu   sync.Mutex
	kept []*flowrec.Batch
}

func (s *timedSource) record(name string, call func() (*flowrec.Batch, error)) (*flowrec.Batch, error) {
	sp := s.tr.start(name, s.pass.Load())
	b, err := call()
	if b != nil {
		sp.Rows = int64(b.Len())
	}
	sp.end()
	if b != nil && s.keep > 0 {
		s.mu.Lock()
		if len(s.kept) < s.keep {
			s.kept = append(s.kept, b)
		}
		s.mu.Unlock()
	}
	return b, err
}

func (s *timedSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return s.record("source.flow", func() (*flowrec.Batch, error) { return s.inner.FlowBatch(vp, hour) })
}

func (s *timedSource) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return s.record("source.vpn", func() (*flowrec.Batch, error) { return s.inner.VPNFlowBatch(vp, hour) })
}

func (s *timedSource) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	return s.record("source.component", func() (*flowrec.Batch, error) { return s.inner.ComponentFlowBatch(vp, name, hour) })
}
