package collector

import (
	"context"
	"runtime"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// checkNoGoroutineLeak snapshots the goroutine count and returns a
// function that asserts the count returned to (at most) the snapshot,
// retrying while the runtime winds goroutines down.
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for time.Now().Before(deadline) {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after shutdown", before, now)
	}
}

// exportHour sends one synthetic hour to the collector address.
func exportHour(t *testing.T, format Format, addr string) *flowrec.Batch {
	t.Helper()
	g := synth.MustNewDefault(synth.EDU)
	b := g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
	exp, err := NewExporter(format, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatch(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCloseDuringRun closes the collector while traffic is in flight;
// Run must return promptly, close every channel, report no error and leak
// nothing.
func TestCloseDuringRun(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(context.Background())
	}()
	exportHour(t, FormatIPFIX, c.Addr())
	// Consume a little, then close mid-stream.
	select {
	case <-c.Tagged():
	case <-time.After(5 * time.Second):
		t.Fatal("no batch arrived before Close")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	// All delivery channels must be closed now, and closing the socket
	// under the read is a shutdown, not an error to report.
	for range c.Tagged() {
	}
	for err := range c.Errors() {
		t.Errorf("Close reported an error: %v", err)
	}
	leak()
}

// TestCloseReportsNoError closes an idle collector whose loop is back in
// its read: the closed socket ends the loop quietly instead of putting
// "use of closed network connection" on Errors(), which a replay bridge
// would count as a decode error.
func TestCloseReportsNoError(t *testing.T) {
	c, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(context.Background())
	}()
	exp, err := NewExporter(FormatIPFIX, c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatch(flowrec.FromRecords(testRecords(5))); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-c.Tagged():
		d.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("no datagram arrived")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	for err := range c.Errors() {
		t.Errorf("Close reported an error: %v", err)
	}
}

// TestSlowConsumerClose fills the delivery channel until the receive loop
// blocks on delivery, then closes; Run must unblock and return instead
// of leaking a goroutine stuck on the channel send.
func TestSlowConsumerClose(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c, err := NewCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(context.Background())
	}()
	// No consumer: the channel (cap 64) fills and the loop blocks on send.
	// A one-row batch leaves as one datagram, so 100 of them exceed the
	// channel's capacity.
	exp, err := NewExporter(FormatNetflowV9, c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	one := flowrec.FromRecords(testRecords(1))
	for range 100 {
		if err := exp.ExportBatch(one); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the loop wedge on a full channel
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close with a blocked consumer")
	}
	leak()
}

// TestErrorOverflowKeepsCollecting drowns the error channel (cap 16,
// drop-on-full, no consumer) in garbage and then verifies the collector
// still decodes valid traffic.
func TestErrorOverflowKeepsCollecting(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	exp, err := NewExporter(FormatIPFIX, c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	for i := 0; i < 100; i++ {
		if err := exp.WriteRaw([]byte("definitely not ipfix")); err != nil {
			t.Fatal(err)
		}
	}
	want := exportHour(t, FormatIPFIX, c.Addr())
	got := CollectBatch(c, want.Len(), 5*time.Second)
	if got.Len() != want.Len() {
		t.Fatalf("collected %d of %d rows after error-channel overflow", got.Len(), want.Len())
	}
	cancel()
	<-done
	c.Close()
	leak()
}

// TestControlChannelDelivery exercises the control plane: a datagram
// prefixed with ControlMagic arrives on Tagged() verbatim, marked as
// Control, in datagram order between the flow packets around it, and is
// not checked as a flow packet.
func TestControlChannelDelivery(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(ctx)
	}()
	exp, err := NewStreamExporter(FormatIPFIX, c.Addr(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	payload := ControlMagic + "\x01hello"
	if err := exp.ExportBatch(flowrec.FromRecords(testRecords(3))); err != nil {
		t.Fatal(err)
	}
	if err := exp.WriteRaw([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := exp.ExportBatch(flowrec.FromRecords(testRecords(4))); err != nil {
		t.Fatal(err)
	}
	next := func() *Datagram {
		t.Helper()
		select {
		case d := <-c.Tagged():
			return d
		case err := <-c.Errors():
			t.Fatalf("header error: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("datagram not delivered")
		}
		return nil
	}
	decode := c.NewDecoder()
	for i, want := range []int{3, -1, 4} {
		d := next()
		if want < 0 {
			if !d.Control || string(d.Data) != payload {
				t.Fatalf("datagram %d: %+v; want the control datagram %q verbatim", i, d, payload)
			}
			d.Release()
			continue
		}
		n, err := decode(flowrec.NewBatch(0), d.Data)
		if d.Control || err != nil || n != want {
			t.Fatalf("datagram %d: %+v decodes to %d rows, err %v; want a %d-row datagram", i, d, n, err, want)
		}
		d.Release()
	}
	select {
	case err := <-c.Errors():
		t.Fatalf("control datagram leaked into the header check: %v", err)
	case d := <-c.Tagged():
		t.Fatalf("unexpected extra datagram %+v", d)
	case <-time.After(100 * time.Millisecond):
	}
	cancel()
	<-done
	c.Close()
	leak()
}

// TestCloseBeforeRun makes sure a collector closed before Run was ever
// started still terminates Run immediately when it is called late.
func TestCloseBeforeRun(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c, err := NewCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return for a pre-closed collector")
	}
	leak()
}
