package flowrec

import (
	"fmt"
	"net/netip"
)

// Addr is an IPv4 address as the batch columns and the wire formats hold
// it: its four bytes in network order. It holds no pointer, so an address
// column is memory the garbage collector never scans; every four-byte pattern
// is an address, so a column needs no validity check; and it is
// comparable. Convert a [4]byte (or a four-byte slice) with Addr(x).
//
// The zero Addr is 0.0.0.0, which is also what the invalid netip.Addr of
// an unset Record field converts to: the one lossy edge, an unset address
// comes back from a batch as 0.0.0.0.
type Addr [4]byte

// AddrFrom converts a netip.Addr. It is the one place an address that is
// not plain IPv4 — IPv6, v4-in-6 mapped, zoned — is refused: no
// generator mints one and no encoder carries one.
func AddrFrom(a netip.Addr) (Addr, error) {
	switch {
	case a.Is4():
		return a.As4(), nil
	case !a.IsValid():
		return Addr{}, nil
	}
	return Addr{}, fmt.Errorf("flowrec: address %v is not IPv4; a batch stores four bytes", a)
}

// mustAddr is AddrFrom for Batch.Append, which has no error to return.
func mustAddr(a netip.Addr) Addr {
	out, err := AddrFrom(a)
	if err != nil {
		panic(err)
	}
	return out
}

// Netip returns a as a netip.Addr, for the record and display edges.
func (a Addr) Netip() netip.Addr { return netip.AddrFrom4(a) }

// String formats the address in dotted-decimal form.
func (a Addr) String() string { return a.Netip().String() }
