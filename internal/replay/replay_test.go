package replay

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

var testHour = time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)

func TestKeyCodecRoundTrip(t *testing.T) {
	// The last three are built from instants inside the hour, in other
	// zones: a key is its UTC hour, and that is what travels.
	cest := time.FixedZone("CEST", 2*3600)
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.HourOf(testHour)},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.HourOf(testHour.Add(31 * 24 * time.Hour))},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.HourOf(testHour)},
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.HourOf(testHour.In(cest).Add(59 * time.Minute))},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.HourOf(testHour.In(time.Local).Add(time.Nanosecond))},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.HourOf(testHour.In(cest))},
	}
	// The request bytes of the first key as the parent commit encoded
	// them: the key type moved to core, the protocol did not.
	const golden = "LKRQ\x02\x00\x00\x00\x03\x00\x00\x00\a\x00\x00\x00\x00\x00^{\xb8@\x06ISP-CE\x00"
	if got := encodeRequest(3, 7, keys[0]); string(got) != golden {
		t.Fatalf("request encoding drifted:\n got %q\nwant %q", got, golden)
	}
	if keys[3] != keys[0] || string(encodeRequest(3, 7, keys[3])) != golden {
		t.Fatalf("a key built 59 minutes into the hour at +02:00 is %v, want %v", keys[3], keys[0])
	}
	for _, k := range keys {
		stream, gen, got, err := parseRequest(encodeRequest(3, 7, k))
		if err != nil {
			t.Fatalf("parseRequest(%v): %v", k, err)
		}
		if stream != 3 || gen != 7 || got != k {
			t.Fatalf("request round trip: got stream=%d gen=%d key=%v, want stream=3 gen=7 key=%v", stream, gen, got, k)
		}
		for _, typ := range []byte{frameBegin, frameEnd, frameNack} {
			f, err := parseCtrl(encodeCtrl(typ, 5, 9, 42, k, "boom"))
			if err != nil {
				t.Fatalf("parseCtrl(%v type %d): %v", k, typ, err)
			}
			if f.typ != typ || f.stream != 5 || f.gen != 9 || f.rows != 42 || f.key != k || f.msg != "boom" {
				t.Fatalf("ctrl round trip: got %+v", f)
			}
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, pkt := range [][]byte{nil, []byte("x"), []byte("LKRQ"), []byte("LKRW\x02\x01"), []byte("LKRQ\x03aaaaaaaaaaaaaaaaaaaa")} {
		if _, _, _, err := parseRequest(pkt); err == nil {
			t.Errorf("parseRequest(%q) accepted garbage", pkt)
		}
		if _, err := parseCtrl(pkt); err == nil {
			t.Errorf("parseCtrl(%q) accepted garbage", pkt)
		}
	}
	// Version-1 datagrams (no stream field) must be rejected, not
	// misparsed: the layouts are incompatible.
	v1 := []byte("LKRQ\x01aaaaaaaaaaaaaaaa")
	if _, _, _, err := parseRequest(v1); err == nil {
		t.Error("parseRequest accepted a protocol-version-1 datagram")
	}
	// A control frame whose key kind is out of range must be rejected.
	bad := encodeCtrl(frameBegin, 0, 1, 1, core.FlowKey{Kind: 9, VP: synth.EDU, Hour: core.HourOf(testHour)}, "")
	if _, err := parseCtrl(bad); err == nil {
		t.Error("parseCtrl accepted an out-of-range batch kind")
	}
}

// newHarness wires a pump and bridge over loopback for one format.
func newHarness(t testing.TB, format collector.Format, opts core.Options) (*Bridge, *Pump) {
	t.Helper()
	br, err := NewBridge(Config{Format: format, Options: opts})
	if err != nil {
		t.Fatalf("NewBridge: %v", err)
	}
	pump, err := NewPump(PumpConfig{Format: format, DataAddr: br.DataAddr(), Options: opts})
	if err != nil {
		br.Close()
		t.Fatalf("NewPump: %v", err)
	}
	if err := br.ConnectPump(pump.CtrlAddr()); err != nil {
		t.Fatalf("ConnectPump: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		pump.Close()
		br.Close()
	})
	go pump.Run(ctx)
	br.Start(ctx)
	return br, pump
}

// batchesEqual requires two batches to store the same columns and the
// same rows in them.
func batchesEqual(t testing.TB, want, got *flowrec.Batch) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("batches differ: want %d rows of %s, got %d rows of %s", want.Len(), want.Columns(), got.Len(), got.Columns())
	}
}

func TestBridgeServesAllKindsAllFormats(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	ref := core.NewSyntheticSource(opts)
	for _, format := range []collector.Format{collector.FormatNetflowV5, collector.FormatNetflowV9, collector.FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			br, pump := newHarness(t, format, opts)

			want, err := ref.FlowBatch(synth.ISPCE, testHour)
			if err != nil {
				t.Fatal(err)
			}
			got, err := br.FlowBatch(synth.ISPCE, testHour)
			if err != nil {
				t.Fatalf("FlowBatch over %v: %v", format, err)
			}
			batchesEqual(t, want, got)

			want, err = ref.VPNFlowBatch(synth.IXPCE, testHour)
			if err != nil {
				t.Fatal(err)
			}
			got, err = br.VPNFlowBatch(synth.IXPCE, testHour)
			if err != nil {
				t.Fatalf("VPNFlowBatch over %v: %v", format, err)
			}
			batchesEqual(t, want, got)

			want, err = ref.ComponentFlowBatch(synth.IXPSE, "gaming", testHour)
			if err != nil {
				t.Fatal(err)
			}
			got, err = br.ComponentFlowBatch(synth.IXPSE, "gaming", testHour)
			if err != nil {
				t.Fatalf("ComponentFlowBatch over %v: %v", format, err)
			}
			batchesEqual(t, want, got)

			stats := br.Stats()
			if stats.Keys != 3 {
				t.Errorf("stats.Keys = %d, want 3", stats.Keys)
			}
			if stats.Rows == 0 || stats.LostRows != 0 || stats.Retries != 0 {
				t.Errorf("unexpected stats: %+v", stats)
			}
			// The bridge returns a bucket once its rows are in, which can be
			// before the pump has counted them: give the counter a moment.
			ps := pump.Stats()
			for deadline := time.Now().Add(2 * time.Second); ps.RowsSent != stats.Rows && time.Now().Before(deadline); ps = pump.Stats() {
				time.Sleep(time.Millisecond)
			}
			if ps.Requests != 3 || ps.RowsSent != stats.Rows {
				t.Errorf("pump stats %+v do not match bridge stats %+v", ps, stats)
			}
		})
	}
}

// TestBridgeServesKindColumns: every batch kind travels at its key's
// column set in every format — the pump exports it, the bridge verifies
// and returns exactly k.Columns() — and equals what SyntheticSource
// generates for the key.
func TestBridgeServesKindColumns(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	ref := core.NewSyntheticSource(opts)
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.HourOf(testHour)},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.HourOf(testHour)},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.HourOf(testHour)},
	}
	for _, format := range []collector.Format{collector.FormatNetflowV5, collector.FormatNetflowV9, collector.FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			br, _ := newHarness(t, format, opts)
			for _, k := range keys {
				want, err := ref.Batch(k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := br.fetch(k)
				if err != nil {
					t.Fatalf("%v over %v: %v", k, format, err)
				}
				if got.Columns() != k.Columns() || got.Len() == 0 {
					t.Errorf("%v: the bridge returned %d rows of %s, want the kind's %s", k, got.Len(), got.Columns(), k.Columns())
				}
				if !got.Equal(want) {
					t.Errorf("%v over %v differs from SyntheticSource", k, format)
				}
			}
		})
	}
}

func TestBridgeOptionsMismatchIsFatal(t *testing.T) {
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        core.Options{FlowScale: 0.1},
		AttemptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The pump models a different flow scale: its announced row counts
	// disagree with the bridge's reference, which must fail fast (a
	// retry cannot cure a model mismatch).
	pump, err := NewPump(PumpConfig{Format: collector.FormatIPFIX, DataAddr: br.DataAddr(), Options: core.Options{FlowScale: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.ConnectPump(pump.CtrlAddr()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); pump.Close(); br.Close() }()
	go pump.Run(ctx)
	br.Start(ctx)

	start := time.Now()
	if _, err := br.FlowBatch(synth.ISPCE, testHour); err == nil {
		t.Fatal("fetch with mismatched options succeeded")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("model mismatch took %v; should fail fast, not retry to timeout", d)
	}
}

func TestBridgeNackFromPump(t *testing.T) {
	// An unknown vantage point has no components: the bridge's own
	// reference build fails before any request, so to exercise the NACK
	// path we speak the request protocol directly and read the frame
	// back on a bare socket standing in for the bridge's collector.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	pump, err := NewPump(PumpConfig{Format: collector.FormatIPFIX, DataAddr: sink.LocalAddr().String(), Options: core.Options{FlowScale: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); pump.Close() }()
	go pump.Run(ctx)

	req, err := net.Dial("udp", pump.CtrlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if _, err := req.Write(encodeRequest(0, 1, core.FlowKey{Kind: core.KindFlows, VP: "NO-SUCH-VP", Hour: core.HourOf(testHour)})); err != nil {
		t.Fatal(err)
	}
	sink.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("no frame from pump: %v", err)
	}
	f, err := parseCtrl(buf[:n])
	if err != nil {
		t.Fatalf("parseCtrl: %v", err)
	}
	if f.typ != frameNack || f.msg == "" {
		t.Fatalf("want NACK with message, got %+v", f)
	}
	if ps := pump.Stats(); ps.Nacks != 1 {
		t.Errorf("pump.Stats().Nacks = %d, want 1", ps.Nacks)
	}
}

func TestBridgeTimesOutWithoutPump(t *testing.T) {
	br, err := NewBridge(Config{
		Format:         collector.FormatIPFIX,
		Options:        core.Options{FlowScale: 0.1},
		AttemptTimeout: 50 * time.Millisecond,
		FetchBudget:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dial a bound socket that never answers: every attempt times out.
	// (A closed port would answer with ICMP "refused", and a refused send
	// is another kind of failed attempt.)
	silent, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := br.ConnectPump(silent.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); br.Close() }()
	br.Start(ctx)

	if _, err := br.FlowBatch(synth.ISPCE, testHour); err == nil {
		t.Fatal("fetch without a pump succeeded")
	}
	if s := br.Stats(); s.Retries != 1 {
		t.Errorf("stats.Retries = %d, want 1 (a 100ms budget over 50ms attempts)", s.Retries)
	}
}

func TestBridgeDiscardsOrphanRows(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	br, _ := newHarness(t, collector.FormatIPFIX, opts)

	// Inject flow packets outside any bucket: a second exporter sends
	// rows the bridge never requested.
	stray, err := collector.NewExporter(collector.FormatIPFIX, br.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	g := synth.MustNewDefault(synth.EDU)
	strayRows := g.FlowsForHourBatch(testHour)
	if strayRows.Len() == 0 {
		t.Fatal("stray batch is empty")
	}
	if err := stray.ExportBatch(strayRows); err != nil {
		t.Fatal(err)
	}

	// A real fetch must still succeed; the stray rows are orphans.
	ref := core.NewSyntheticSource(opts)
	want, err := ref.FlowBatch(synth.ISPCE, testHour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testHour)
	if err != nil {
		t.Fatalf("fetch alongside stray traffic: %v", err)
	}
	batchesEqual(t, want, got)
	if s := br.Stats(); s.OrphanRows == 0 {
		t.Errorf("stats.OrphanRows = 0, want > 0 (stray exporter sent rows)")
	}
}

func TestVerifyAndRepair(t *testing.T) {
	g := synth.MustNewDefault(synth.ISPCE)
	ref := g.FlowsForHourBatch(testHour)
	if ref.Len() == 0 {
		t.Fatal("empty reference batch")
	}

	// Full-fidelity formats: an identical copy passes, a tampered byte
	// count fails.
	cp := flowrec.NewBatch(ref.Len())
	cp.AppendBatch(ref)
	if err := verifyAndRepair(collector.FormatIPFIX, ref, cp); err != nil {
		t.Fatalf("identical batch rejected: %v", err)
	}
	cp.Bytes[0]++
	if err := verifyAndRepair(collector.FormatIPFIX, ref, cp); err == nil {
		t.Fatal("tampered Bytes column accepted")
	}

	// v5: a batch with the format's documented losses applied (truncated
	// counters and ASNs, no direction) verifies and is repaired to full
	// fidelity.
	lossy := flowrec.NewBatch(ref.Len())
	lossy.AppendBatch(ref)
	for i := 0; i < lossy.Len(); i++ {
		lossy.Bytes[i] &= 0xFFFFFFFF
		lossy.Packets[i] &= 0xFFFFFFFF
		lossy.SrcAS[i] &= 0xFFFF
		lossy.DstAS[i] &= 0xFFFF
		lossy.Dir[i] = flowrec.DirUnknown
	}
	if err := verifyAndRepair(collector.FormatNetflowV5, ref, lossy); err != nil {
		t.Fatalf("v5-lossy batch rejected: %v", err)
	}
	batchesEqual(t, ref, lossy)

	// v5 with a carried field tampered must still fail.
	lossy.SrcPort[0]++
	if err := verifyAndRepair(collector.FormatNetflowV5, ref, lossy); err == nil {
		t.Fatal("tampered SrcPort accepted on the v5 path")
	}

	// A bucket of the flows/ kind's columns: v5 verifies the carried bits
	// of what it stores and restores its lossy columns (ASNs, Bytes, Dir)
	// and nothing else; one flipped bit of a stored column fails the
	// full-fidelity formats.
	cols := core.FlowKey{Kind: core.KindFlows}.Columns()
	refCols := ref.Project(cols)
	bucket := ref.Project(cols)
	for i := 0; i < bucket.Len(); i++ {
		bucket.Bytes[i] &= 0xFFFFFFFF
		bucket.SrcAS[i] &= 0xFFFF
		bucket.DstAS[i] &= 0xFFFF
		bucket.Dir[i] = flowrec.DirUnknown
	}
	if err := verifyAndRepair(collector.FormatNetflowV5, refCols, bucket); err != nil {
		t.Fatalf("v5-lossy flows/ bucket rejected: %v", err)
	}
	batchesEqual(t, refCols, bucket)
	bucket.DstAS[len(bucket.DstAS)-1] ^= 1
	if err := verifyAndRepair(collector.FormatIPFIX, refCols, bucket); err == nil || !strings.Contains(err.Error(), "DstAS") {
		t.Fatalf("flipped DstAS bit: err %v, want a DstAS mismatch", err)
	}
	if err := verifyAndRepair(collector.FormatIPFIX, ref, refCols); err == nil {
		t.Fatal("a bucket of other columns than the reference accepted")
	}
}

// TestServedBatchDoubleReleasePanics: the batches the model oracle serves
// are pool-drawn and released by the pump and the bridge exactly once; a
// second Release of one must keep panicking, or two later draws would
// alias one set of columns.
func TestServedBatchDoubleReleasePanics(t *testing.T) {
	src := core.NewSyntheticSource(core.Options{FlowScale: 0.1})
	b, err := src.Batch(core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.HourOf(testHour)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Fatal("empty hour")
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release of a served batch must panic")
		}
	}()
	b.Release()
}
