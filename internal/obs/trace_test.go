package obs

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func readFileForTest(path string) ([]byte, error) { return os.ReadFile(path) }

// traceDoc mirrors the trace_event JSON document for the round-trip
// test.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// TestTraceRoundTrip writes a representative span/instant mix —
// sequential spans, concurrent spans from several goroutines, instants
// and an Emit'd event — then parses the whole document back and checks
// the schema and the lane invariant: every event carries a phase and
// timestamp, and complete slices on one lane never overlap.
func TestTraceRoundTrip(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)

	root := tr.Start("exp:fig1", "experiment")
	time.Sleep(time.Millisecond)
	tr.Instant("dataset cache", "cache", map[string]any{"entries": "218"})
	tr.Emit(Event{Cat: "cluster", Msg: "rebalance", Fields: []Field{Fi("moved", 4)}})
	root.End()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start("scan-chunk", "scan")
			time.Sleep(time.Millisecond)
			sp.EndArgs(map[string]any{"item": 0})
		}()
	}
	wg.Wait()
	seq := tr.Start("exp:fig2", "experiment")
	seq.End()

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Close() != nil {
		t.Error("second Close not idempotent")
	}
	late := tr.Start("late", "x")
	if late.End() < 0 {
		t.Error("span after Close lost its measurement")
	}

	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace file does not parse: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	byLane := make(map[int][]traceEvent)
	names := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
		switch ev.Ph {
		case "M": // metadata: process_name once, thread_name per lane
		case "i":
			if ev.S != "t" {
				t.Errorf("instant %q scope %q, want t", ev.Name, ev.S)
			}
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("complete event %q without duration", ev.Name)
				continue
			}
			if ev.TS < 0 {
				t.Errorf("complete event %q with negative ts", ev.Name)
			}
			byLane[ev.TID] = append(byLane[ev.TID], ev)
		default:
			t.Errorf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}
	for _, want := range []string{"process_name", "thread_name", "exp:fig1", "scan-chunk", "dataset cache", "rebalance", "exp:fig2"} {
		if names[want] == 0 {
			t.Errorf("event %q missing from trace", want)
		}
	}
	if names["scan-chunk"] != 8 {
		t.Errorf("scan-chunk events = %d, want 8", names["scan-chunk"])
	}
	if names["late"] != 0 {
		t.Error("event emitted after Close")
	}

	// A lane holds one span at a time: two complete slices on one lane
	// that overlap mean concurrent spans shared it.
	const slack = 1e-3 // float microsecond rounding
	for lane, evs := range byLane {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				aEnd, bEnd := a.TS+*a.Dur, b.TS+*b.Dur
				if a.TS < bEnd-slack && b.TS < aEnd-slack {
					t.Errorf("lane %d: %q [%v,%v] and %q [%v,%v] overlap",
						lane, a.Name, a.TS, aEnd, b.Name, b.TS, bEnd)
				}
			}
		}
	}
}

// TestLaneReuse pins the freelist: sequential root spans share lane 1,
// and a released lane is handed to the next root.
func TestLaneReuse(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	a := tr.Start("a", "t")
	if a.tid != 1 {
		t.Errorf("first root on lane %d, want 1", a.tid)
	}
	b := tr.Start("b", "t")
	if b.tid != 2 {
		t.Errorf("concurrent root on lane %d, want 2", b.tid)
	}
	a.End()
	c := tr.Start("c", "t")
	if c.tid != 1 {
		t.Errorf("root after release on lane %d, want reused 1", c.tid)
	}
	c.End()
	b.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateWritesFile exercises the file-backed constructor end to end.
func TestCreateWritesFile(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	tr, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := tr.Start("x", "y")
	sp.End()
	if tr.Events() < 2 { // process_name + thread_name + span
		t.Errorf("events = %d", tr.Events())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := readFileForTest(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("file does not parse: %v", err)
	}
}
