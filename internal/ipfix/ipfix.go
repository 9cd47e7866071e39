// Package ipfix names the IPFIX (RFC 7011) codec, tmpl.IPFIX, the way the
// benchmark's codec probe (bench/inproc.go) calls it: an Encoder and a
// decoder. Those two names are all it holds; the framing, its RFC notes
// and everything else about the format live in package tmpl, which the
// collector and the tests use directly.
package ipfix

import (
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
)

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
	return tmpl.IPFIX.EncodeBatch(dst, b, lo, hi, exportTime, e.DomainID, &e.seq)
}

// NewDecoder returns an IPFIX decoder with an empty template cache;
// templates are cached per observation domain.
func NewDecoder() *tmpl.Decoder { return tmpl.NewDecoder(&tmpl.IPFIX) }
