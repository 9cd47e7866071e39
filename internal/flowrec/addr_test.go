package flowrec_test

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"lockdown/internal/flowrec"
)

// TestBatchColumnsArePointerFree pins the mechanism the pointer-free
// batch rests on, not its speed: every column of a Batch is a slice whose
// element type holds no pointer (so the runtime allocates the backing
// arrays noscan and the GC never walks them), an Addr is 17 bytes, and
// RowBytes is the sum of the column element sizes.
func TestBatchColumnsArePointerFree(t *testing.T) {
	if got := unsafe.Sizeof(flowrec.Addr{}); got != 17 {
		t.Errorf("unsafe.Sizeof(Addr{}) = %d, want 17", got)
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

// addrFixtures are the addresses whose representation is easiest to get
// wrong: unset, the IPv4 extremes, the IPv6 zero, a v4-in-6 mapped
// address (not equal to its IPv4 form) and an ordinary IPv6 one.
var addrFixtures = []netip.Addr{
	{},
	netip.MustParseAddr("0.0.0.0"),
	netip.MustParseAddr("255.255.255.255"),
	netip.MustParseAddr("::"),
	netip.MustParseAddr("::ffff:1.2.3.4"),
	netip.MustParseAddr("1.2.3.4"),
	netip.MustParseAddr("2001:db8::1"),
}

// randomAddr draws from a space small enough that equal pairs — and
// IPv4 / v4-in-6 pairs of the same four bytes — actually occur.
func randomAddr(rng *rand.Rand) netip.Addr {
	b4 := [4]byte{10, 0, 0, byte(rng.Intn(4))}
	switch rng.Intn(4) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom4(b4)
	case 2:
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: b4[0], 13: b4[1], 14: b4[2], 15: b4[3]})
	}
	var b16 [16]byte
	rng.Read(b16[:])
	return netip.AddrFrom16(b16)
}

// checkAddrPair asserts that Addr means what netip.Addr meant for x and
// y: conversion is lossless, equality is preserved in both directions,
// and Is4 / As4 / String agree.
func checkAddrPair(t *testing.T, x, y netip.Addr) {
	t.Helper()
	ax, err := flowrec.AddrFrom(x)
	if err != nil {
		t.Fatalf("AddrFrom(%v): %v", x, err)
	}
	ay, err := flowrec.AddrFrom(y)
	if err != nil {
		t.Fatalf("AddrFrom(%v): %v", y, err)
	}
	if got := ax.Netip(); got != x {
		t.Errorf("AddrFrom(%v).Netip() = %v", x, got)
	}
	if (x == y) != (ax == ay) {
		t.Errorf("%v == %v is %v, but their Addrs compare %v", x, y, x == y, ax == ay)
	}
	if ax.Is4() != x.Is4() {
		t.Errorf("AddrFrom(%v).Is4() = %v, netip says %v", x, ax.Is4(), x.Is4())
	}
	if x.Is4() {
		if ax.As4() != x.As4() {
			t.Errorf("AddrFrom(%v).As4() = %v", x, ax.As4())
		}
		if ax != flowrec.AddrFrom4(x.As4()) {
			t.Errorf("AddrFrom(%v) differs from AddrFrom4 of its bytes", x)
		}
	}
	if ax.String() != x.String() {
		t.Errorf("AddrFrom(%v).String() = %q", x, ax.String())
	}
	if err := flowrec.CheckAddrs([]flowrec.Addr{ax, ay}); err != nil {
		t.Errorf("constructed Addrs are not canonical: %v", err)
	}
}

func TestAddrMatchesNetip(t *testing.T) {
	for _, x := range addrFixtures {
		for _, y := range addrFixtures {
			checkAddrPair(t, x, y)
		}
	}
	if (flowrec.Addr{}).Netip().IsValid() {
		t.Error("the zero Addr must convert to the zero netip.Addr")
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			checkAddrPair(t, randomAddr(rng), randomAddr(rng))
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestZonesAreRejected: an IPv6 zone is an interned string and cannot
// enter a pointer-free column. AddrFrom is the one place that says so;
// Record.Validate reports it ahead of time and Batch.Append, which has
// no error to return, treats it as the caller's bug.
func TestZonesAreRejected(t *testing.T) {
	zoned := netip.MustParseAddr("fe80::1%eth0")
	if _, err := flowrec.AddrFrom(zoned); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("AddrFrom(%v) = %v, want a zone error", zoned, err)
	}
	if a, err := flowrec.AddrFrom(zoned.WithZone("")); err != nil || a.Netip() != zoned.WithZone("") {
		t.Fatalf("the same address without its zone must convert: %v, %v", a, err)
	}
	for name, r := range map[string]flowrec.Record{
		"src": {SrcIP: zoned, DstIP: netip.MustParseAddr("10.0.0.1")},
		"dst": {SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: zoned},
	} {
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "zone") {
			t.Errorf("%s: Validate() = %v, want a zone error", name, err)
		}
		b := flowrec.NewBatch(1)
		func() {
			defer func() {
				if msg := recover(); msg == nil || !strings.Contains(msg.(error).Error(), "zone") {
					t.Errorf("%s: Append of a zoned record recovered %v, want the zone panic", name, msg)
				}
			}()
			b.Append(r)
		}()
		if b.Len() != 0 || len(b.SrcIP) != 0 || len(b.StartNs) != 0 {
			t.Errorf("%s: the refused record left %d rows behind", name, b.Len())
		}
	}
}

// TestCheckAddrs: the canonical-form check accepts exactly what the
// constructors produce. Non-canonical values cannot be built through the
// API, so they are built the way a span file delivers them: as bytes.
func TestCheckAddrs(t *testing.T) {
	raw := func(fam byte, slot ...byte) flowrec.Addr {
		var b [17]byte
		copy(b[:16], slot)
		b[16] = fam
		return *(*flowrec.Addr)(unsafe.Pointer(&b))
	}
	v4 := []byte{12: 1, 13: 2, 14: 3, 15: 4}
	if got := raw(4, v4...); got != flowrec.AddrFrom4([4]byte{1, 2, 3, 4}) {
		t.Fatalf("raw layout is not slot-then-family: %v", got)
	}
	good := []flowrec.Addr{{}, raw(4, v4...), raw(6, 0x20, 0x01), raw(6)}
	if err := flowrec.CheckAddrs(good); err != nil {
		t.Fatalf("canonical column rejected: %v", err)
	}
	for name, bad := range map[string]flowrec.Addr{
		"unknown family":      raw(9, v4...),
		"v4 dirty prefix lo":  raw(4, 1),
		"v4 dirty prefix hi":  raw(4, []byte{11: 1, 15: 4}...),
		"unset dirty slot lo": raw(0, 1),
		"unset dirty slot hi": raw(0, []byte{15: 1}...),
	} {
		err := flowrec.CheckAddrs(append(append([]flowrec.Addr(nil), good...), bad))
		if err == nil || !strings.Contains(err.Error(), "row 4") {
			t.Errorf("%s: CheckAddrs = %v, want an error naming row 4", name, err)
		}
	}
}
