// Package netflow implements the Cisco NetFlow version 9 export format
// (RFC 3954) used by the ISP, EDU and mobile vantage points of "The
// Lockdown Effect" (IMC 2020). Only the features the analyses need are
// implemented — IPv4 flow records with byte/packet counters, ports,
// protocol, AS numbers, interfaces and direction.
//
// Version 9 is template-based and shares everything but its framing with
// IPFIX, so its codec is package tmpl; this package holds the v9 framing
// and the V9Encoder / NewV9Decoder names over it. Both are append-style:
// the encoder appends one packet to a caller-supplied byte slice and the
// decoder appends rows to a caller-supplied flowrec.Batch, so a
// steady-state export or collect loop that reuses its buffer and batch
// performs zero allocations per record.
//
// The framing follows RFC 3954 and interoperates with standard tooling,
// with one known deviation: the RFC defines FIRST_SWITCHED /
// LAST_SWITCHED (fields 22 / 21) as sysUptime-relative milliseconds, and
// this codec writes epoch seconds into them with the header's sysUptime
// pinned at one hour. A standard v9 collector therefore reads wrong flow
// timestamps; our own decoder round-trips them exactly. The wire bytes
// are pinned by the golden-packet test, so changing this is its own
// change.
package netflow

import (
	"encoding/binary"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
)

// v9 is the NetFlow v9 framing of the shared template codec: a 20-byte
// header that counts records and carries a sysUptime, template flowset 0,
// 2-byte SNMP interface indexes, flowsets padded to four bytes, and a
// sequence number that counts packets.
var v9 = tmpl.Framing{
	Name:        "netflow",
	Version:     9,
	HeaderLen:   20,
	StreamOff:   16,
	TemplateSet: 0,
	TemplateID:  256,
	// FIRST_SWITCHED and LAST_SWITCHED, carrying epoch seconds: the known
	// deviation described in the package doc.
	StartID: 22,
	EndID:   21,
	IfLen:   2,
	PadSets: true,
	PutHeader: func(hdr []byte, _, rows int, export, seq uint32) {
		be := binary.BigEndian
		be.PutUint16(hdr[2:], uint16(1+rows))                   // template record + data records
		be.PutUint32(hdr[4:], uint32(time.Hour.Milliseconds())) // sysUptime, pinned
		be.PutUint32(hdr[8:], export)
		be.PutUint32(hdr[12:], seq)
	},
}

// V9Encoder serialises flow batches into NetFlow v9 packets. Each packet
// carries the template flowset followed by one data flowset, so decoders
// never observe data before its template.
type V9Encoder struct {
	SourceID uint32
	seq      uint32
}

// EncodeBatch appends one v9 packet carrying the template and rows
// [lo, hi) of b to dst; see tmpl.Framing.EncodeBatch for the contract.
func (e *V9Encoder) EncodeBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
	return v9.EncodeBatch(dst, b, lo, hi, exportTime, e.SourceID, &e.seq)
}

// V9MaxRecords is how many records of the column set cols one v9 packet
// carries when it fills a UDP datagram; see tmpl.Framing.MaxRecords.
func V9MaxRecords(cols flowrec.Columns) int { return v9.MaxRecords(cols) }

// CheckV9Header reports whether pkt starts with a NetFlow v9 packet
// header; see tmpl.Framing.CheckHeader.
func CheckV9Header(pkt []byte) error { return v9.CheckHeader(pkt) }

// V9SourceID returns the source ID field of a NetFlow v9 packet header
// without decoding the flowsets (0 for packets too short to carry one).
func V9SourceID(pkt []byte) uint32 { return v9.StreamID(pkt) }

// NewV9Decoder returns a NetFlow v9 decoder with an empty template cache;
// templates are cached per source ID.
func NewV9Decoder() *tmpl.Decoder { return tmpl.NewDecoder(&v9) }
