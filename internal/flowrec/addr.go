package flowrec

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"unsafe"
)

// Addr is an IP address as the batch columns hold it: a 16-byte slot
// plus a family byte, 17 bytes with no pointer in them, so an address
// column is memory the garbage collector never scans and a span file can
// be viewed in place. It is comparable, and two Addrs are equal exactly
// when the netip.Addrs they were made from are: like netip.Addr it keeps
// an IPv4 address and its v4-in-6 mapped form apart.
//
// Every Addr in a batch is in canonical form — family 0 with an all-zero
// slot (the zero Addr, an unset address), family 4 with the address in
// the last four bytes and zeros before it, or family 6 with all sixteen
// bytes significant — which is what makes == mean address equality. The
// constructors produce nothing else; CheckAddrs verifies a column that
// aliases memory this package did not write.
type Addr struct {
	ip  [16]byte
	fam uint8
}

// Address families of an Addr.
const (
	famNone = 0 // the zero Addr
	fam4    = 4 // IPv4, in ip[12:16]
	fam6    = 6 // everything else, including v4-in-6
)

// The span-file format and the 85-byte row both rest on this size.
var _ [17]byte = [unsafe.Sizeof(Addr{})]byte{}

// AddrFrom4 returns the IPv4 address a.
func AddrFrom4(a [4]byte) Addr {
	out := Addr{fam: fam4}
	copy(out.ip[12:], a[:])
	return out
}

// AddrFrom converts a netip.Addr, keeping its exact representation. An
// address with an IPv6 zone is an error: a zone is an interned string,
// which a pointer-free column cannot hold.
func AddrFrom(a netip.Addr) (Addr, error) {
	switch {
	case !a.IsValid():
		return Addr{}, nil
	case a.Is4():
		return AddrFrom4(a.As4()), nil
	case a.Zone() != "":
		return Addr{}, fmt.Errorf("flowrec: address %v has a zone; zones cannot be stored in a batch", a)
	}
	return Addr{ip: a.As16(), fam: fam6}, nil
}

// mustAddr is AddrFrom for Batch.Append, which has no error to return.
func mustAddr(a netip.Addr) Addr {
	out, err := AddrFrom(a)
	if err != nil {
		panic(err)
	}
	return out
}

// Netip returns the netip.Addr that AddrFrom made a from.
func (a Addr) Netip() netip.Addr {
	switch a.fam {
	case fam4:
		return netip.AddrFrom4(a.As4())
	case fam6:
		return netip.AddrFrom16(a.ip)
	}
	return netip.Addr{}
}

// Is4 reports whether a is an IPv4 address (not a v4-in-6 mapped one).
func (a Addr) Is4() bool { return a.fam == fam4 }

// As4 returns the four bytes of an IPv4 address; the wire encoders call
// it after Is4. For any other address it returns the slot's last four
// bytes, which carry no meaning of their own.
func (a Addr) As4() [4]byte { return [4]byte(a.ip[12:]) }

// String formats the address as netip.Addr does ("invalid IP" for the
// zero Addr).
func (a Addr) String() string { return a.Netip().String() }

// CheckAddrs reports the first row of col that is not in canonical form:
// an unknown family byte, an IPv4 row with a non-zero prefix, or a
// zero-family row with a non-zero slot. A column built through this
// package always passes; package flowstore runs it over the columns it
// views straight out of a span file, where a row that fails would
// compare unequal to the address it claims to be.
func CheckAddrs(col []Addr) error {
	le := binary.LittleEndian
	for i := range col {
		a := &col[i]
		switch a.fam {
		case fam6:
		case fam4:
			if le.Uint64(a.ip[0:])|uint64(le.Uint32(a.ip[8:])) != 0 {
				return fmt.Errorf("row %d: IPv4 address with a non-zero prefix", i)
			}
		case famNone:
			if le.Uint64(a.ip[0:])|le.Uint64(a.ip[8:]) != 0 {
				return fmt.Errorf("row %d: unset address with a non-zero slot", i)
			}
		default:
			return fmt.Errorf("row %d: unknown address family %d", i, a.fam)
		}
	}
	return nil
}
