package replay

import (
	"context"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

var testDay = time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)

func TestKeyCodecRoundTrip(t *testing.T) {
	// The last three are built from instants inside the day, in other
	// zones: a key of every kind is its UTC day, and that is what travels.
	cest := time.FixedZone("CEST", 2*3600)
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.DayOf(testDay.Add(31 * 24 * time.Hour))},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.DayOf(testDay)},
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay.In(cest).Add(21*time.Hour + 59*time.Minute))},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.DayOf(testDay.In(time.Local).Add(time.Nanosecond))},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.DayOf(testDay.In(cest))},
	}
	// The request bytes of the first key. The layout is version 2's: version
	// 3 made a component key a day and version 4 every key, which moved the
	// version byte and this key's time (its day, no longer its 20:00), and
	// version 5, which added the digest to control frames, the version byte.
	const golden = "LKRQ\x05\x00\x00\x00\x03\x00\x00\x00\a\x00\x00\x00\x00\x00^z\x9f\x00\x06ISP-CE\x00"
	if got := encodeRequest(3, 7, keys[0]); string(got) != golden {
		t.Fatalf("request encoding drifted:\n got %q\nwant %q", got, golden)
	}
	if keys[3] != keys[0] || string(encodeRequest(3, 7, keys[3])) != golden {
		t.Fatalf("a key built at 23:59 at +02:00 is %v, want %v", keys[3], keys[0])
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
			f, err := parseCtrl(encodeCtrl(typ, 5, 9, 42, 0xc0ffee01, k, "boom"))
			if err != nil {
				t.Fatalf("parseCtrl(%v type %d): %v", k, typ, err)
			}
			if f.typ != typ || f.stream != 5 || f.gen != 9 || f.rows != 42 || f.digest != 0xc0ffee01 || f.key != k || f.msg != "boom" {
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
	bad := encodeCtrl(frameBegin, 0, 1, 1, 0, core.FlowKey{Kind: 9, VP: synth.EDU, Hour: core.DayOf(testDay)}, "")
	if _, err := parseCtrl(bad); err == nil {
		t.Error("parseCtrl accepted an out-of-range batch kind")
	}
	// A key of every kind names a UTC day: one at 14:00 names no batch, in
	// a request or in a frame.
	at14 := core.HourOf(time.Date(2020, 3, 25, 14, 0, 0, 0, time.UTC))
	for _, hourly := range []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.IXPSE, Hour: at14},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: at14},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: at14},
	} {
		if _, _, _, err := parseRequest(encodeRequest(0, 1, hourly)); err == nil || !strings.Contains(err.Error(), "not a UTC day") {
			t.Errorf("parseRequest(%v) = %v, want a refusal", hourly, err)
		}
		if _, err := parseCtrl(encodeCtrl(frameBegin, 0, 1, 1, 0, hourly, "")); err == nil {
			t.Errorf("parseCtrl accepted %v", hourly)
		}
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
	for _, format := range []collector.Format{collector.FormatNetflowV9, collector.FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			br, pump := newHarness(t, format, opts)

			want, err := ref.FlowBatch(synth.ISPCE, testDay)
			if err != nil {
				t.Fatal(err)
			}
			got, err := br.FlowBatch(synth.ISPCE, testDay)
			if err != nil {
				t.Fatalf("FlowBatch over %v: %v", format, err)
			}
			batchesEqual(t, want, got)

			want, err = ref.VPNFlowBatch(synth.IXPCE, testDay)
			if err != nil {
				t.Fatal(err)
			}
			got, err = br.VPNFlowBatch(synth.IXPCE, testDay)
			if err != nil {
				t.Fatalf("VPNFlowBatch over %v: %v", format, err)
			}
			batchesEqual(t, want, got)

			// The bridge serves the component's UTC day the hour falls in.
			want, err = ref.ComponentFlowBatch(synth.IXPSE, "gaming", core.DayOf(testDay).Time())
			if err != nil {
				t.Fatal(err)
			}
			got, err = br.ComponentFlowBatch(synth.IXPSE, "gaming", testDay)
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
// column set in every format — the pump exports it, the bridge checks
// and returns exactly k.Columns() — and equals what SyntheticSource
// generates for the key.
func TestBridgeServesKindColumns(t *testing.T) {
	opts := core.Options{FlowScale: 0.1}
	ref := core.NewSyntheticSource(opts)
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.DayOf(testDay)},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.DayOf(testDay)},
	}
	for _, format := range []collector.Format{collector.FormatNetflowV9, collector.FormatIPFIX} {
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
	// disagree with the bridge's model, which must fail fast (a retry
	// cannot cure a model mismatch).
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
	if _, err := br.FlowBatch(synth.ISPCE, testDay); err == nil {
		t.Fatal("fetch with mismatched options succeeded")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("model mismatch took %v; should fail fast, not retry to timeout", d)
	}
}

// TestBridgeSeedMismatchIsFatal: a pump at another seed announces the
// bridge's row counts — a day's hour counts do not depend on the seed —
// and the digest of rows it did draw, so only the bridge's checked hour
// can tell. The fetch must fail as a mismatch on the first attempt, not
// retry until its budget is gone.
func TestBridgeSeedMismatchIsFatal(t *testing.T) {
	const attempt = 2 * time.Second
	bridgeOpts, pumpOpts := core.Options{FlowScale: 0.1}, core.Options{FlowScale: 0.1, Seed: 7}
	day := time.Date(2020, 3, 14, 0, 0, 0, 0, time.UTC)
	k := core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(day)}
	ours, err := core.NewSyntheticSource(bridgeOpts).HourFlows(k)
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := core.NewSyntheticSource(pumpOpts).HourFlows(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ours, theirs) {
		t.Fatalf("hour counts differ between the seeds (%v, %v): the row count would catch this", ours, theirs)
	}
	br, err := NewBridge(Config{Format: collector.FormatIPFIX, Options: bridgeOpts, AttemptTimeout: attempt})
	if err != nil {
		t.Fatal(err)
	}
	pump, err := NewPump(PumpConfig{Format: collector.FormatIPFIX, DataAddr: br.DataAddr(), Options: pumpOpts})
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
	if _, err := br.FlowBatch(synth.ISPCE, day); err == nil {
		t.Fatal("fetch from a pump at another seed succeeded")
	} else if !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
	if d := time.Since(start); d >= attempt {
		t.Errorf("seed mismatch took %v; should fail within one attempt", d)
	}
	if ps := pump.Stats(); ps.Requests != 1 {
		t.Errorf("pump served %d requests, want 1", ps.Requests)
	}
	if s := br.Stats(); s.Retries != 0 || s.Keys != 0 {
		t.Errorf("stats %+v, want no retry and no bucket served", s)
	}
}

// TestFetchSpanCountsCheckedRows: a traced fetch records how many rows the
// bridge drew from its own model to check the bucket — the first hour of
// the key's window that has rows, not the day.
func TestFetchSpanCountsCheckedRows(t *testing.T) {
	var sb strings.Builder
	tr := obs.NewTracer(&sb)
	opts := core.Options{FlowScale: 0.1}
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)},
		{Kind: core.KindFlows, VP: synth.IXPSE, Hour: core.DayOf(testDay)}, // working hours only
	}
	want := map[string][2]int{} // key → checked rows, rows
	for _, k := range keys {
		counts, err := core.NewSyntheticSource(opts).HourFlows(k)
		if err != nil {
			t.Fatal(err)
		}
		first, rows := 0, 0
		for _, n := range counts {
			if first == 0 {
				first = n
			}
			rows += n
		}
		if first == 0 || first >= rows {
			t.Fatalf("%v: hour counts %v do not exercise the check", k, counts)
		}
		want[k.String()] = [2]int{first, rows}
	}
	traced := opts
	traced.Tracer = tr
	br, _ := newHarness(t, collector.FormatIPFIX, traced)
	for _, k := range keys {
		if _, err := br.fetch(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct {
				Key     string
				Checked int `json:"checked_rows"`
				Rows    int
			}
		}
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string][2]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "fetch" {
			got[ev.Args.Key] = [2]int{ev.Args.Checked, ev.Args.Rows}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fetch spans (key → checked_rows, rows) = %v, want %v", got, want)
	}
}

func TestBridgeNackFromPump(t *testing.T) {
	// An unknown vantage point has no components: the bridge's own model
	// refuses it before any request, so to exercise the NACK
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
	if _, err := req.Write(encodeRequest(0, 1, core.FlowKey{Kind: core.KindFlows, VP: "NO-SUCH-VP", Hour: core.DayOf(testDay)})); err != nil {
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

	if _, err := br.FlowBatch(synth.ISPCE, testDay); err == nil {
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
	strayRows := g.FlowsForHourBatch(testDay)
	if strayRows.Len() == 0 {
		t.Fatal("stray batch is empty")
	}
	if err := stray.ExportBatch(strayRows); err != nil {
		t.Fatal(err)
	}

	// A real fetch must still succeed; the stray rows are orphans.
	ref := core.NewSyntheticSource(opts)
	want, err := ref.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.FlowBatch(synth.ISPCE, testDay)
	if err != nil {
		t.Fatalf("fetch alongside stray traffic: %v", err)
	}
	batchesEqual(t, want, got)
	if s := br.Stats(); s.OrphanRows == 0 {
		t.Errorf("stats.OrphanRows = 0, want > 0 (stray exporter sent rows)")
	}
}

// TestDigest: a bucket's digest changes when any bit of any column it
// stores flips — for the full set and for each kind's — so the bridge's
// digest check catches a single flipped bit anywhere in a bucket off the
// wire; and a batch of other columns than the bucket's does not match it.
func TestDigest(t *testing.T) {
	hour := synth.MustNewDefault(synth.ISPCE).FlowsForHourBatch(testDay)
	if hour.Len() < 2 {
		t.Fatal("the hour has fewer than two rows")
	}
	names := reflect.TypeOf(*hour)
	sets := []flowrec.Columns{flowrec.AllColumns}
	for _, kind := range []core.FlowKind{core.KindFlows, core.KindVPNFlows, core.KindComponentFlows} {
		sets = append(sets, core.FlowKey{Kind: kind}.Columns())
	}
	for _, cols := range sets {
		cp := hour.Project(cols)
		want := cp.Digest()
		for c := 0; c < flowrec.NumColumns; c++ {
			if !cols.Has(flowrec.Columns(1) << c) {
				continue
			}
			col := reflect.ValueOf(cp).Elem().Field(c)
			// The low bit of the last row and the high bit of the first.
			for _, at := range []struct{ row, bit int }{{cp.Len() - 1, 0}, {0, -1}} {
				flip := flipper(col.Index(at.row), at.bit)
				flip()
				if cp.Digest() == want {
					t.Errorf("%s: flipping a bit of %s row %d leaves the digest", cols, names.Field(c).Name, at.row)
				}
				flip()
			}
		}
		if cp.Digest() != want {
			t.Fatalf("%s: restored batch has another digest", cols)
		}
		for _, other := range sets {
			if other != cols && hour.Project(other).Digest() == want {
				t.Errorf("a batch of %s matches the digest of %s", other, cols)
			}
		}
	}
}

// flipper returns a function that flips one bit of v, an integer or a
// byte array: bit b, or its highest bit for b = -1.
func flipper(v reflect.Value, b int) func() {
	if v.Kind() == reflect.Array {
		if b < 0 {
			b = 8*v.Len() - 1
		}
		e := v.Index(b / 8)
		return func() { e.SetUint(e.Uint() ^ 1<<(b%8)) }
	}
	if b < 0 {
		b = v.Type().Bits() - 1
	}
	if v.CanInt() {
		return func() { v.SetInt(int64(uint64(v.Int()) ^ 1<<b)) }
	}
	return func() { v.SetUint(v.Uint() ^ 1<<b) }
}

// TestServedBatchDoubleReleasePanics: the batches the model oracle serves
// are pool-drawn and released by the pump and the bridge exactly once; a
// second Release of one must keep panicking, or two later draws would
// alias one set of columns.
func TestServedBatchDoubleReleasePanics(t *testing.T) {
	src := core.NewSyntheticSource(core.Options{FlowScale: 0.1})
	b, err := src.Batch(core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)})
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
