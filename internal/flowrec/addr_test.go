package flowrec_test

import (
	"math/rand"
	"net/netip"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
	"lockdown/internal/ipfix"
	"lockdown/internal/netflow"
)

// TestBatchColumnsArePointerFree pins the mechanism the pointer-free
// batch rests on, not its speed: every column of a Batch is a slice whose
// element type holds no pointer (so the runtime allocates the backing
// arrays noscan and the GC never walks them), an Addr is 4 bytes, and
// RowBytes is the sum of the column element sizes, 59.
func TestBatchColumnsArePointerFree(t *testing.T) {
	if got := unsafe.Sizeof(flowrec.Addr{}); got != 4 {
		t.Errorf("unsafe.Sizeof(Addr{}) = %d, want 4", got)
	}
	if flowrec.RowBytes != 59 {
		t.Errorf("RowBytes = %d, want 59", flowrec.RowBytes)
	}
	var hasPointer func(reflect.Type) bool
	hasPointer = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return hasPointer(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointer(ty.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true // pointers, strings, slices, maps, interfaces, funcs, channels
	}
	rowBytes, columns := 0, 0
	bt := reflect.TypeOf(flowrec.Batch{})
	for i := 0; i < bt.NumField(); i++ {
		f := bt.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		columns++
		rowBytes += int(f.Type.Elem().Size())
		if hasPointer(f.Type.Elem()) {
			t.Errorf("column %s: element type %v contains a pointer; the GC would scan the column", f.Name, f.Type.Elem())
		}
	}
	if columns != 15 {
		t.Errorf("found %d columns, want 15", columns)
	}
	if rowBytes != flowrec.RowBytes {
		t.Errorf("column element sizes sum to %d, RowBytes = %d", rowBytes, flowrec.RowBytes)
	}
}

// TestAddrMatchesNetip: for IPv4, Addr means what netip.Addr means —
// conversion is lossless in both directions, equality is preserved, the
// bytes are the address's own and String agrees.
func TestAddrMatchesNetip(t *testing.T) {
	check := func(x, y netip.Addr) {
		t.Helper()
		ax, errX := flowrec.AddrFrom(x)
		ay, errY := flowrec.AddrFrom(y)
		if errX != nil || errY != nil {
			t.Fatalf("AddrFrom(%v), AddrFrom(%v): %v, %v", x, y, errX, errY)
		}
		if got := ax.Netip(); got != x {
			t.Errorf("AddrFrom(%v).Netip() = %v", x, got)
		}
		if (x == y) != (ax == ay) {
			t.Errorf("%v == %v is %v, but their Addrs compare %v", x, y, x == y, ax == ay)
		}
		if ax != flowrec.Addr(x.As4()) {
			t.Errorf("AddrFrom(%v) = %v, not its four bytes", x, ax)
		}
		if ax.String() != x.String() {
			t.Errorf("AddrFrom(%v).String() = %q", x, ax.String())
		}
	}
	fixtures := []netip.Addr{
		netip.MustParseAddr("0.0.0.0"),
		netip.MustParseAddr("255.255.255.255"),
		netip.MustParseAddr("1.2.3.4"),
	}
	for _, x := range fixtures {
		for _, y := range fixtures {
			check(x, y)
		}
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A space small enough that equal pairs actually occur.
		draw := func() netip.Addr { return netip.AddrFrom4([4]byte{10, 0, byte(rng.Intn(2)), byte(rng.Intn(4))}) }
		for i := 0; i < 64; i++ {
			check(draw(), draw())
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestNonIPv4IsRefusedAtTheEdge: a batch stores four bytes an address,
// and AddrFrom is the one place that says so — IPv6, v4-in-6 mapped and
// zoned addresses are errors there; Record.Validate reports them ahead of
// time and Batch.Append, which has no error to return, treats one as the
// caller's bug. The invalid netip.Addr is the one lossy edge: it
// converts to the zero Addr, which is 0.0.0.0.
func TestNonIPv4IsRefusedAtTheEdge(t *testing.T) {
	v4 := netip.MustParseAddr("10.0.0.1")
	for _, s := range []string{"2001:db8::1", "::ffff:1.2.3.4", "fe80::1%eth0"} {
		bad := netip.MustParseAddr(s)
		if a, err := flowrec.AddrFrom(bad); err == nil || !strings.Contains(err.Error(), "not IPv4") || a != (flowrec.Addr{}) {
			t.Fatalf("AddrFrom(%v) = %v, %v; want the not-IPv4 error", bad, a, err)
		}
		for name, r := range map[string]flowrec.Record{
			"src": {SrcIP: bad, DstIP: v4},
			"dst": {SrcIP: v4, DstIP: bad},
		} {
			if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "not IPv4") {
				t.Errorf("%s %s: Validate() = %v, want the not-IPv4 error", s, name, err)
			}
			b := flowrec.NewBatch(1)
			func() {
				defer func() {
					if msg := recover(); msg == nil || !strings.Contains(msg.(error).Error(), "not IPv4") {
						t.Errorf("%s %s: Append recovered %v, want the not-IPv4 panic", s, name, msg)
					}
				}()
				b.Append(r)
			}()
			if b.Len() != 0 || len(b.SrcIP) != 0 || len(b.StartNs) != 0 {
				t.Errorf("%s %s: the refused record left %d rows behind", s, name, b.Len())
			}
		}
	}

	zero, err := flowrec.AddrFrom(netip.Addr{})
	if err != nil || zero != (flowrec.Addr{}) {
		t.Fatalf("AddrFrom(invalid) = %v, %v; want the zero Addr", zero, err)
	}
	if got := zero.Netip(); got != netip.MustParseAddr("0.0.0.0") {
		t.Errorf("the zero Addr converts to %v, want 0.0.0.0", got)
	}
	if err := (flowrec.Record{SrcIP: v4}).Validate(); err == nil {
		t.Error("Validate accepted a record with an unset address")
	}
	b := flowrec.FromRecords([]flowrec.Record{{SrcIP: v4}})
	if got := b.Record(0).DstIP; got != netip.MustParseAddr("0.0.0.0") {
		t.Errorf("an unset address came back from a batch as %v, want 0.0.0.0", got)
	}
}

// TestEveryAddrRoundTrips: every four-byte pattern is an address, and
// each layer that carries one carries it unchanged — the two wire
// codecs, encode to decode, and a span file, Append to Span to the
// mapped view.
func TestEveryAddrRoundTrips(t *testing.T) {
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	sf, err := flowstore.Create(filepath.Join(t.TempDir(), "addrs"+flowstore.SpannedExt))
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := flowrec.NewBatch(30)
		for i := 0; i < 30; i++ {
			b.Append(genRecord(rng))
			rng.Read(b.SrcIP[i][:])
			rng.Read(b.DstIP[i][:])
		}
		b.SrcIP[0], b.DstIP[0] = flowrec.Addr{}, flowrec.Addr{255, 255, 255, 255}
		b.SrcIP[1], b.DstIP[1] = flowrec.Addr{255, 255, 255, 255}, flowrec.Addr{}

		v9out, ipout := flowrec.NewBatch(b.Len()), flowrec.NewBatch(b.Len())
		var v9e netflow.V9Encoder
		pkt, err := v9e.EncodeBatch(nil, b, 0, b.Len(), export)
		if err == nil {
			_, err = netflow.NewV9Decoder().DecodeBatch(v9out, pkt)
		}
		if err != nil {
			t.Errorf("v9: %v", err)
		}
		var ipe ipfix.Encoder
		if pkt, err = ipe.EncodeBatch(nil, b, 0, b.Len(), export); err == nil {
			_, err = ipfix.NewDecoder().DecodeBatch(ipout, pkt)
		}
		if err != nil {
			t.Errorf("ipfix: %v", err)
		}
		ref, err := sf.Append(b)
		if err != nil {
			t.Fatalf("span append: %v", err)
		}
		seg, err := sf.Span(ref)
		if err != nil {
			t.Fatalf("span fault: %v", err)
		}
		defer seg.Close()
		view, _ := seg.Batch()

		for name, out := range map[string]*flowrec.Batch{"v9": v9out, "ipfix": ipout, "span": view} {
			if !slices.Equal(out.SrcIP, b.SrcIP) || !slices.Equal(out.DstIP, b.DstIP) {
				t.Errorf("%s: the address columns changed in transit", name)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
