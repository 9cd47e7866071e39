package replay

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// chaosPump is a pump of stream 3 exporting under a chaos spec to a
// capture socket, with its faults traced. The tests call serve directly,
// so every send of a bucket has returned, and been decided and counted,
// when serve does: nothing waits for the counts to settle.
type chaosPump struct {
	*Pump
	capture *net.UDPConn
	trace   *strings.Builder
	tracer  *obs.Tracer
}

func newChaosPump(t *testing.T, spec faultinject.Spec) *chaosPump {
	t.Helper()
	capture, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { capture.Close() })
	capture.SetReadBuffer(readBuffer)
	// Every read below expects a datagram already sent; the deadline only
	// bounds a failing test.
	capture.SetReadDeadline(time.Now().Add(10 * time.Second))
	trace := new(strings.Builder)
	tracer := obs.NewTracer(trace)
	p, err := NewPump(PumpConfig{
		Format:   collector.FormatIPFIX,
		DataAddr: capture.LocalAddr().String(),
		Stream:   3,
		Options:  core.Options{FlowScale: 0.05, Tracer: tracer},
		Chaos:    &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return &chaosPump{Pump: p, capture: capture, trace: trace, tracer: tracer}
}

// serveBucket serves one day key and returns the pump's chaos counts. The
// bucket is a BEGIN, its flow packets and endCopies ENDs.
func (c *chaosPump) serveBucket(t *testing.T) faultinject.Counts {
	t.Helper()
	c.serve(1, core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)})
	st := c.Stats()
	if st.Nacks != 0 || st.ExportErrors != 0 || st.RowsSent == 0 {
		t.Fatalf("pump stats %+v, want a bucket of rows exported without error", st)
	}
	if st.Chaos.Seen < 2+endCopies {
		t.Fatalf("the schedule decided %d datagrams, want BEGIN, data and %d ENDs", st.Chaos.Seen, endCopies)
	}
	return st.Chaos
}

// read returns the next datagram the capture socket holds.
func (c *chaosPump) read(t *testing.T) []byte {
	t.Helper()
	buf := make([]byte, 64<<10)
	n, err := c.capture.Read(buf)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	return buf[:n]
}

// expectMarker sends a marker on the pump's own socket with the schedule
// off and asserts it is the next datagram captured: one socket's
// datagrams reach loopback in order, so nothing else is left before it.
func (c *chaosPump) expectMarker(t *testing.T) {
	t.Helper()
	c.exp.SetCopies(nil)
	marker := []byte("marker")
	if err := c.exp.WriteRaw(marker); err != nil {
		t.Fatal(err)
	}
	if got := c.read(t); !bytes.Equal(got, marker) {
		t.Fatalf("captured a %d-byte datagram where only the marker was due", len(got))
	}
}

// expectInstants asserts the trace holds n instants of the fault, each
// naming the pump's stream.
func (c *chaosPump) expectInstants(t *testing.T, fault string, n int64) {
	t.Helper()
	if err := c.tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Cat  string
			Args map[string]any
		}
	}
	if err := json.Unmarshal([]byte(c.trace.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, ev := range doc.TraceEvents {
		if ev.Name == fault && ev.Cat == "chaos" && ev.Args["stream"] == float64(3) {
			got++
		}
	}
	if got != n {
		t.Errorf("%d %s instants for stream 3, want %d", got, fault, n)
	}
}

// TestPumpChaosDropAll: under drop=1 a pump delivers nothing, counts every
// datagram it decided as dropped, records each drop as a fault-drop
// instant, and still counts the bucket's rows as exported.
func TestPumpChaosDropAll(t *testing.T) {
	c := newChaosPump(t, faultinject.Spec{Drop: 1, Seed: 1})
	counts := c.serveBucket(t)
	if counts != (faultinject.Counts{Seen: counts.Seen, Dropped: counts.Seen}) {
		t.Errorf("counts %+v, want every datagram dropped", counts)
	}
	c.expectMarker(t)
	c.expectInstants(t, "fault-drop", counts.Seen)
}

// TestPumpChaosDuplicateAll: under dup=1 a pump delivers each datagram
// twice in a row, BEGIN first, and counts every one as duplicated.
func TestPumpChaosDuplicateAll(t *testing.T) {
	c := newChaosPump(t, faultinject.Spec{Dup: 1, Seed: 1})
	counts := c.serveBucket(t)
	if counts != (faultinject.Counts{Seen: counts.Seen, Forwarded: 2 * counts.Seen, Duplicated: counts.Seen}) {
		t.Errorf("counts %+v, want every datagram sent twice", counts)
	}
	for i := range counts.Seen {
		first, second := c.read(t), c.read(t)
		if !bytes.Equal(first, second) {
			t.Fatalf("datagram %d: the second copy differs from the first", i)
		}
		if i == 0 {
			if f, err := parseCtrl(first); err != nil || f.typ != frameBegin || f.gen != 1 {
				t.Fatalf("first datagram is not generation 1's BEGIN: %+v, %v", f, err)
			}
		}
	}
	c.expectMarker(t)
	c.expectInstants(t, "fault-dup", counts.Seen)
}
