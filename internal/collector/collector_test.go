package collector

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
)

func testRecords(n int) []flowrec.Record {
	now := time.Now().UTC().Truncate(time.Second)
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = flowrec.Record{
			Start:   now.Add(-time.Minute),
			End:     now,
			SrcIP:   netip.AddrFrom4([4]byte{10, 9, 0, byte(i + 1)}),
			DstIP:   netip.AddrFrom4([4]byte{10, 8, 0, 1}),
			SrcPort: uint16(1000 + i),
			DstPort: 443,
			Proto:   flowrec.ProtoTCP,
			Bytes:   uint64(100 + i),
			Packets: 2,
			SrcAS:   64700,
			DstAS:   15169,
		}
	}
	return recs
}

func TestRoundTripV9(t *testing.T) {
	got := batchRoundTrip(t, FormatNetflowV9, 10)
	if got.Len() != 10 {
		t.Fatalf("collected %d rows, want 10", got.Len())
	}
	if got.SrcAS[3] != 64700 || got.DstAS[3] != 15169 {
		t.Errorf("AS numbers mangled: %+v", got.Record(3))
	}
}

// TestRoundTripIPFIX also checks every row against what was exported.
func TestRoundTripIPFIX(t *testing.T) {
	got := batchRoundTrip(t, FormatIPFIX, 250) // spans multiple messages
	if got.Len() != 250 {
		t.Fatalf("collected %d rows, want 250", got.Len())
	}
	for i, want := range testRecords(250) {
		// testRecords stamps relative to now; compare what does not move.
		want.Start, want.End = got.StartAt(i), got.EndAt(i)
		if got.Record(i) != want {
			t.Fatalf("row %d = %+v, want %+v", i, got.Record(i), want)
		}
	}
}

// TestLargeMessageDecodes: the read buffer holds the largest message the
// 16-bit length fields describe, so a 300-row IPFIX message from our own
// encoder (16 588 bytes, over a jumbo frame's 9000) is decoded whole, not
// cut short and rejected for its length field.
func TestLargeMessageDecodes(t *testing.T) {
	col, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)
	defer col.Close()
	exp, err := NewExporter(FormatIPFIX, col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	b := flowrec.FromRecords(testRecords(300))
	msg, err := new(ipfix.Encoder).EncodeBatch(nil, b, 0, b.Len(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) != 16588 {
		t.Fatalf("the 300-row message is %d bytes, want 16588", len(msg))
	}
	if err := exp.WriteRaw(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-col.Tagged():
		got := flowrec.NewBatch(0)
		if n, err := col.NewDecoder()(got, d.Data); err != nil || n != 300 || got.SrcPort[299] != b.SrcPort[299] {
			t.Errorf("decoded %d rows, err %v, want all 300", n, err)
		}
		d.Release()
	case err := <-col.Errors():
		t.Fatalf("the 300-row message was rejected: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("nothing decoded")
	}
}

// batchRoundTrip exports n test records to a fresh collector and gathers
// them back.
func batchRoundTrip(t *testing.T, format Format, n int) *flowrec.Batch {
	t.Helper()
	col, err := NewCollector(format, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)
	defer col.Close()

	exp, err := NewExporter(format, col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatch(flowrec.FromRecords(testRecords(n))); err != nil {
		t.Fatal(err)
	}
	return CollectBatch(col, n, 3*time.Second)
}

func TestBatchRoundTripAllFormats(t *testing.T) {
	for _, tc := range []struct {
		format Format
		n      int
	}{
		{FormatNetflowV9, 10},
		{FormatIPFIX, 250}, // spans multiple messages
	} {
		got := batchRoundTrip(t, tc.format, tc.n)
		if got.Len() != tc.n {
			t.Fatalf("%v: collected %d rows, want %d", tc.format, got.Len(), tc.n)
		}
		if got.DstPort[0] != 443 || got.Proto[0] != flowrec.ProtoTCP {
			t.Errorf("%v: row content mangled: %+v", tc.format, got.Record(0))
		}
	}
}

func TestCollectorErrorsOnGarbage(t *testing.T) {
	col, err := NewCollector(FormatIPFIX, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)
	defer col.Close()

	exp, err := NewExporter(FormatNetflowV9, col.Addr()) // wrong format on purpose
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	if err := exp.ExportBatch(flowrec.FromRecords(testRecords(1))); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-col.Errors():
		if e == nil {
			t.Error("expected a decode error")
		}
	case <-time.After(3 * time.Second):
		t.Error("no decode error reported for mismatched format")
	}
}

func TestCollectorCloseClosesChannel(t *testing.T) {
	col, err := NewCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		col.Run(ctx)
		close(done)
	}()
	col.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	if _, ok := <-col.Tagged(); ok {
		// Channel may still hold buffered batches in general, but here
		// nothing was sent, so it must be closed and empty.
		t.Error("delivery channel not closed after Close")
	}
}

func TestCollectorContextCancel(t *testing.T) {
	col, err := NewCollector(FormatNetflowV9, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		col.Run(ctx)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}
}

func TestFormatString(t *testing.T) {
	if FormatNetflowV9.String() != "netflow-v9" ||
		FormatIPFIX.String() != "ipfix" || Format(9).String() != "format(9)" {
		t.Error("Format.String values unexpected")
	}
}

func TestExporterBadAddress(t *testing.T) {
	if _, err := NewExporter(FormatIPFIX, "this is not an address"); err == nil {
		t.Error("bad exporter address accepted")
	}
	if _, err := NewCollector(FormatIPFIX, "not an address"); err == nil {
		t.Error("bad collector address accepted")
	}
	if _, err := NewCollector(Format(9), "127.0.0.1:0"); err == nil {
		t.Error("collector for an unknown format accepted")
	}
	if _, err := NewExporter(Format(9), "127.0.0.1:9"); err == nil {
		t.Error("exporter for an unknown format accepted")
	}
}

// TestExporterFillsDatagrams: a NetFlow v9 or IPFIX message carries as
// many records of the batch's column set as one UDP datagram holds, so a
// batch of N rows leaves as ceil(N / max) datagrams,
// none over the 65 507 bytes of a UDP payload, and what they decode to,
// concatenated into a batch of the same column set, is the batch.
func TestExporterFillsDatagrams(t *testing.T) {
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	sets := map[string]flowrec.Columns{"full": flowrec.AllColumns}
	for _, kind := range []core.FlowKind{core.KindFlows, core.KindVPNFlows, core.KindComponentFlows} {
		sets[kind.String()] = core.FlowKey{Kind: kind}.Columns()
	}
	for _, format := range []Format{FormatNetflowV9, FormatIPFIX} {
		f, err := format.framing()
		if err != nil {
			t.Fatal(err)
		}
		for name, cols := range sets {
			t.Run(format.String()+"/"+name, func(t *testing.T) {
				max := f.MaxRecords(cols)
				n := 2*max + 7
				recs := testRecords(n)
				for i := range recs { // second-aligned, as the templates carry them
					recs[i].Start, recs[i].End = export.Add(-time.Minute), export
				}
				b := flowrec.FromRecords(recs).Project(cols)

				col, err := NewCollector(format, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				col.SetReadBuffer(4 << 20)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go col.Run(ctx)
				defer col.Close()
				exp, err := NewExporter(format, col.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer exp.Close()
				if err := exp.ExportBatchAt(b, export); err != nil {
					t.Fatal(err)
				}

				got, datagrams := flowrec.NewProjected(0, cols), 0
				decode := col.NewDecoder()
				deadline := time.After(5 * time.Second)
				for got.Len() < n {
					select {
					case d := <-col.Tagged():
						datagrams++
						if len(d.Data) > 65507 {
							t.Errorf("datagram %d is %d bytes, over a UDP payload", datagrams, len(d.Data))
						}
						if _, err := decode(got, d.Data); err != nil {
							t.Fatal(err)
						}
						d.Release()
					case err := <-col.Errors():
						t.Fatal(err)
					case <-deadline:
						t.Fatalf("%d of %d rows arrived", got.Len(), n)
					}
				}
				if want := (n + max - 1) / max; datagrams != want {
					t.Errorf("%d rows left as %d datagrams, want %d of up to %d records", n, datagrams, want, max)
				}
				if !got.Equal(b) {
					t.Error("the decoded datagrams are not the exported batch")
				}
			})
		}
	}
}
