// Package ipfix implements the IPFIX (RFC 7011) export format used by the
// IXP vantage points of "The Lockdown Effect" (IMC 2020). IPFIX is the
// standardised successor of NetFlow v9 and shares its set structure,
// template records and field numbering, so the codec itself lives in
// package tmpl; this package is the IPFIX framing of it — message header,
// set and element numbers — under the names an IPFIX user expects.
// Message framing, template sets and data sets follow the RFC, so the
// codec interoperates with standard collectors. As in package netflow,
// only IPv4 flow records with the fields the analyses need are supported.
package ipfix

import (
	"encoding/binary"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
)

// framing is the IPFIX framing of the shared template codec: a 16-byte
// header that carries the message length, template set 2, 4-byte
// interface indexes, unpadded sets, and a sequence number that counts
// data records.
var framing = tmpl.Framing{
	Name:        "ipfix",
	Version:     10,
	HeaderLen:   16,
	StreamOff:   12,
	TemplateSet: 2,
	TemplateID:  400,
	StartID:     150, // flowStartSeconds
	EndID:       151, // flowEndSeconds
	IfLen:       4,
	SeqRecords:  true,
	HasLength:   true,
	PutHeader: func(hdr []byte, size, _ int, export, seq uint32) {
		be := binary.BigEndian
		be.PutUint16(hdr[2:], uint16(size))
		be.PutUint32(hdr[4:], export)
		be.PutUint32(hdr[8:], seq)
	},
}

// Encoder serialises flow batches into IPFIX messages for one observation
// domain. Every message carries the template set before the data set. The
// zero value is ready to use.
type Encoder struct {
	DomainID uint32
	seq      uint32
}

// EncodeBatch appends one IPFIX message carrying the template set and
// rows [lo, hi) of b to dst; see tmpl.Framing.EncodeBatch for the
// contract.
func (e *Encoder) EncodeBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time) ([]byte, error) {
	return framing.EncodeBatch(dst, b, lo, hi, exportTime, e.DomainID, &e.seq)
}

// MaxRecords is how many records of the column set cols one IPFIX
// message carries when it fills a UDP datagram; see
// tmpl.Framing.MaxRecords.
func MaxRecords(cols flowrec.Columns) int { return framing.MaxRecords(cols) }

// CheckHeader reports whether msg starts with an IPFIX message header
// whose length field matches its size; see tmpl.Framing.CheckHeader.
func CheckHeader(msg []byte) error { return framing.CheckHeader(msg) }

// DomainID returns the observation domain ID of an IPFIX message header
// without decoding the sets (0 for messages too short to carry one).
func DomainID(msg []byte) uint32 { return framing.StreamID(msg) }

// NewDecoder returns an IPFIX decoder with an empty template cache;
// templates are cached per observation domain.
func NewDecoder() *tmpl.Decoder { return tmpl.NewDecoder(&framing) }
