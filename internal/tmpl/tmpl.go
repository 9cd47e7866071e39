// Package tmpl implements the template-based flow export family — NetFlow
// v9 (RFC 3954) and IPFIX (RFC 7011) — once. IPFIX grew out of NetFlow v9:
// the set structure and the template records are the same, and IANA's
// IPFIX elements 1–127 are the NetFlow v9 field types, so one encoder and
// one decoder serve both. What does differ — the message header, the set
// and field numbers around it, and two conventions — is a Framing value,
// and V9 and IPFIX are the two: a format is its Framing.
//
// The API is append-style and columnar: EncodeBatch appends one message
// to a caller-supplied byte slice, DecodeBatch appends rows to a
// caller-supplied flowrec.Batch, so a steady-state export or collect loop
// that reuses its buffer and batch performs zero allocations per record.
// Only IPv4 flows with the fields the analyses of "The Lockdown Effect"
// (IMC 2020) need are supported.
package tmpl

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"lockdown/internal/flowrec"
)

// Framing is everything that differs between the members of the family.
type Framing struct {
	Name        string // error prefix
	Version     uint16 // header word 0
	HeaderLen   int
	StreamOff   int    // header offset of the 32-bit exporter stream identity
	TemplateSet uint16 // ID of the sets that announce templates
	TemplateID  uint16 // the full-width template's ID; see EncodeBatch for the others
	StartID     uint16 // field carrying the flow start, in epoch seconds
	EndID       uint16 // field carrying the flow end, in epoch seconds
	IfLen       uint16 // wire width of the interface indexes: 2 or 4
	PadSets     bool   // data sets are zero-padded to a multiple of four bytes, by less than a record
	SeqRecords  bool   // the sequence number counts records, not messages
	HasLength   bool   // header word 1 is the message length; decode verifies it
	// PutHeader fills the rest of hdr[:HeaderLen] for a message of size
	// bytes carrying rows data records; the version word and the stream
	// identity are written by the codec, where it reads them back.
	PutHeader func(hdr []byte, size, rows int, export, seq uint32)
}

// V9 is the NetFlow version 9 framing (RFC 3954), the export format of the
// paper's ISP, EDU and mobile vantage points: a 20-byte header that counts
// records and carries a sysUptime, template flowset 0, 2-byte SNMP
// interface indexes, flowsets padded to four bytes, and a sequence number
// that counts packets. Templates are cached per source ID.
//
// It interoperates with standard tooling with one known deviation: the RFC
// defines FIRST_SWITCHED / LAST_SWITCHED (fields 22 / 21) as
// sysUptime-relative milliseconds, and this codec writes epoch seconds
// into them with the header's sysUptime pinned at one hour. A standard v9
// collector therefore reads wrong flow timestamps; our own decoder
// round-trips them exactly. The wire bytes are pinned by the golden-packet
// test, so changing this is its own change.
var V9 = Framing{
	Name:        "netflow",
	Version:     9,
	HeaderLen:   20,
	StreamOff:   16,
	TemplateSet: 0,
	TemplateID:  256,
	// FIRST_SWITCHED and LAST_SWITCHED, carrying epoch seconds: the known
	// deviation described above.
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

// IPFIX is the IPFIX framing (RFC 7011), the export format of the paper's
// IXP vantage points: a 16-byte header that carries the message length,
// template set 2, 4-byte interface indexes, unpadded sets, and a sequence
// number that counts data records. Flow start and end travel as
// flowStartSeconds / flowEndSeconds (IEs 150 / 151), as the RFC defines
// them. Templates are cached per observation domain.
var IPFIX = Framing{
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

// Field numbers the two registries share (RFC 3954 §8, RFC 7012 §4). Flow
// start and end are the exception and come from the Framing.
const (
	fieldBytes     = 1
	fieldPackets   = 2
	fieldProtocol  = 4
	fieldTCPFlags  = 6
	fieldSrcPort   = 7
	fieldSrcIPv4   = 8
	fieldInIf      = 10
	fieldDstPort   = 11
	fieldDstIPv4   = 12
	fieldOutIf     = 14
	fieldSrcAS     = 16
	fieldDstAS     = 17
	fieldDirection = 61
)

// maxMessage is the largest message EncodeBatch writes: the largest UDP
// payload over IPv4 (65 535 − 20 − 8 bytes), which is under what the
// 16-bit set and message length fields describe, so a message always
// fits the one datagram it is sent in.
const maxMessage = 65507

// Column opcodes: what a cached template field decodes into. A template
// is interpreted once, when it is cached; parseData then switches on
// these dense constants once per field and data set, and the case it
// picks fills that field's column for every record of the set.
const (
	colSkip uint8 = iota // unknown field, or one of zero length
	colSrcIP
	colDstIP
	colBytes
	colPackets
	colStart
	colEnd
	colSrcPort
	colDstPort
	colProto
	colTCPFlags
	colDir
	colInIf
	colOutIf
	colSrcAS
	colDstAS
)

// opColumn is the batch column each opcode fills (none for colSkip).
var opColumn = [...]flowrec.Columns{
	colSrcIP: flowrec.ColSrcIP, colDstIP: flowrec.ColDstIP,
	colBytes: flowrec.ColBytes, colPackets: flowrec.ColPackets,
	colStart: flowrec.ColStartNs, colEnd: flowrec.ColEndNs,
	colSrcPort: flowrec.ColSrcPort, colDstPort: flowrec.ColDstPort,
	colProto: flowrec.ColProto, colTCPFlags: flowrec.ColTCPFlags, colDir: flowrec.ColDir,
	colInIf: flowrec.ColInIf, colOutIf: flowrec.ColOutIf,
	colSrcAS: flowrec.ColSrcAS, colDstAS: flowrec.ColDstAS,
}

// field is one field of a cached template: its number and length as
// announced on the wire, and the column it resolves to.
type field struct {
	id, length uint16
	col        uint8
}

// template is a cached template with its record length summed up.
type template struct {
	fields []field
	recLen int
}

// stdField is one field of the standard template: its number and wire
// length, and the batch column it carries.
type stdField struct {
	id, length uint16
	col        flowrec.Columns
}

// standardTemplate is the template of the full column set: one field per
// column of a flowrec.Batch, for IPv4 flows, in the order EncodeBatch
// writes them. The template of any other column set is this one with the
// fields of the columns the set lacks left out.
func (f *Framing) standardTemplate() [flowrec.NumColumns]stdField {
	return [...]stdField{
		{fieldSrcIPv4, 4, flowrec.ColSrcIP},
		{fieldDstIPv4, 4, flowrec.ColDstIP},
		{fieldBytes, 8, flowrec.ColBytes},
		{fieldPackets, 8, flowrec.ColPackets},
		{f.StartID, 4, flowrec.ColStartNs},
		{f.EndID, 4, flowrec.ColEndNs},
		{fieldSrcPort, 2, flowrec.ColSrcPort},
		{fieldDstPort, 2, flowrec.ColDstPort},
		{fieldProtocol, 1, flowrec.ColProto},
		{fieldTCPFlags, 1, flowrec.ColTCPFlags},
		{fieldDirection, 1, flowrec.ColDir},
		{fieldInIf, f.IfLen, flowrec.ColInIf},
		{fieldOutIf, f.IfLen, flowrec.ColOutIf},
		{fieldSrcAS, 4, flowrec.ColSrcAS},
		{fieldDstAS, 4, flowrec.ColDstAS},
	}
}

// layout is the template of the column set cols: the standard template
// filtered to cols, and its record length.
func (f *Framing) layout(cols flowrec.Columns) (fields [flowrec.NumColumns]stdField, nf, recLen int) {
	for _, fl := range f.standardTemplate() {
		if cols.Has(fl.col) {
			fields[nf] = fl
			nf++
			recLen += int(fl.length)
		}
	}
	return fields, nf, recLen
}

// dataSetLen is the length of a data set of n records of recLen bytes,
// and the padding it includes. Padding as long as a record would decode
// as one more (the record length of a one- or two-byte column set), so
// such a set goes unpadded.
func (f *Framing) dataSetLen(n, recLen int) (length, pad int) {
	length = 4 + n*recLen
	if f.PadSets && -length&3 < recLen {
		pad = -length & 3
	}
	return length + pad, pad
}

// MaxRecords is how many records of the column set cols one message
// carries when it fills a UDP datagram: what is left of the 65 507 bytes
// after the header, the template set and the data set's header, in whole
// records (and less the padding, where the framing pads). EncodeBatch
// accepts this many rows of a batch storing cols and refuses one more.
func (f *Framing) MaxRecords(cols flowrec.Columns) int {
	_, nf, recLen := f.layout(cols)
	room := maxMessage - f.HeaderLen - (8 + 4*nf)
	n := (room - 4) / recLen
	if l, _ := f.dataSetLen(n, recLen); l > room {
		n-- // the padding is shorter than a record, so one fewer fits
	}
	return n
}

// EncodeBatch appends one message carrying the template set and rows
// [lo, hi) of b to dst and returns the extended slice. stream and *seq are
// the exporter's identity and sequence counter. The template carries the
// columns b stores and no others: it is the standard template filtered to
// them, announced under its own ID, TemplateID plus the bit set of the
// columns b lacks (flowrec.AllColumns &^ b.Columns()), so a full-width
// batch is sent under TemplateID itself and one stream may interleave
// column sets without evicting each other's cached templates. A decoder
// fills a column the template lacks with zeros. The message is written in
// place, one column at a time at a stride of one record: a caller that
// reuses the returned slice across messages encodes with zero allocations
// once the buffer has grown to message size. On error — an empty range,
// or more rows than one UDP datagram holds (MaxRecords) — dst is returned
// unmodified and the sequence number is not consumed.
func (f *Framing) EncodeBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time, stream uint32, seq *uint32) ([]byte, error) {
	n := hi - lo
	if n <= 0 {
		return dst, fmt.Errorf("%s: no records to encode", f.Name)
	}
	cols := b.Columns()
	all, nf, recLen := f.layout(cols)
	tpl := all[:nf]
	tplSetLen := 4 + 4 + 4*len(tpl)
	dataSetLen, pad := f.dataSetLen(n, recLen)
	total := f.HeaderLen + tplSetLen + dataSetLen
	if total > maxMessage {
		return dst, fmt.Errorf("%s: %d records do not fit one datagram (%d bytes, at most %d)", f.Name, n, total, maxMessage)
	}

	be := binary.BigEndian
	off0 := len(dst)
	dst = slices.Grow(dst, total)[:off0+total]
	msg := dst[off0:]
	be.PutUint16(msg[0:], f.Version)
	be.PutUint32(msg[f.StreamOff:], stream)
	f.PutHeader(msg, total, n, uint32(exportTime.Unix()), *seq)

	tplID := f.TemplateID + uint16(flowrec.AllColumns&^cols)
	set := msg[f.HeaderLen:]
	be.PutUint16(set[0:], f.TemplateSet)
	be.PutUint16(set[2:], uint16(tplSetLen))
	be.PutUint16(set[4:], tplID)
	be.PutUint16(set[6:], uint16(len(tpl)))
	for i, fl := range tpl {
		be.PutUint16(set[8+4*i:], fl.id)
		be.PutUint16(set[10+4*i:], fl.length)
	}

	set = set[tplSetLen:]
	be.PutUint16(set[0:], tplID)
	be.PutUint16(set[2:], uint16(dataSetLen))
	off := 4
	for _, fl := range tpl {
		rec, w := set[off:], int(fl.length)
		off += w
		switch fl.col {
		case flowrec.ColSrcIP:
			storeAddr(rec, b.SrcIP[lo:hi], recLen)
		case flowrec.ColDstIP:
			storeAddr(rec, b.DstIP[lo:hi], recLen)
		case flowrec.ColBytes:
			storeUint(rec, b.Bytes[lo:hi], recLen, w)
		case flowrec.ColPackets:
			storeUint(rec, b.Packets[lo:hi], recLen, w)
		case flowrec.ColStartNs:
			storeSeconds(rec, b.StartNs[lo:hi], recLen)
		case flowrec.ColEndNs:
			storeSeconds(rec, b.EndNs[lo:hi], recLen)
		case flowrec.ColSrcPort:
			storeUint(rec, b.SrcPort[lo:hi], recLen, w)
		case flowrec.ColDstPort:
			storeUint(rec, b.DstPort[lo:hi], recLen, w)
		case flowrec.ColProto:
			storeUint(rec, b.Proto[lo:hi], recLen, w)
		case flowrec.ColTCPFlags:
			storeUint(rec, b.TCPFlags[lo:hi], recLen, w)
		case flowrec.ColDir:
			storeUint(rec, b.Dir[lo:hi], recLen, w)
		case flowrec.ColInIf:
			storeUint(rec, b.InIf[lo:hi], recLen, w)
		case flowrec.ColOutIf:
			storeUint(rec, b.OutIf[lo:hi], recLen, w)
		case flowrec.ColSrcAS:
			storeUint(rec, b.SrcAS[lo:hi], recLen, w)
		case flowrec.ColDstAS:
			storeUint(rec, b.DstAS[lo:hi], recLen, w)
		}
	}
	clear(set[dataSetLen-pad : dataSetLen]) // the buffer may be reused
	if f.SeqRecords {
		*seq += uint32(n)
	} else {
		*seq++
	}
	return dst, nil
}

// storeUint writes col[i] as a w-byte big-endian field at dst[i*stride:],
// w being one of the standard template's widths (1, 2, 4 or 8 bytes).
func storeUint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](dst []byte, col []T, stride, w int) {
	be := binary.BigEndian
	switch w {
	case 1:
		for i, v := range col {
			dst[i*stride] = byte(v)
		}
	case 2:
		for i, v := range col {
			be.PutUint16(dst[i*stride:], uint16(v))
		}
	case 4:
		for i, v := range col {
			be.PutUint32(dst[i*stride:], uint32(v))
		}
	default:
		for i, v := range col {
			be.PutUint64(dst[i*stride:], uint64(v))
		}
	}
}

// storeSeconds writes a timestamp column as 4-byte epoch seconds.
func storeSeconds(dst []byte, col []int64, stride int) {
	for i, ns := range col {
		binary.BigEndian.PutUint32(dst[i*stride:], uint32(ns/int64(time.Second)))
	}
}

// storeAddr writes an address column as 4-byte IPv4 fields.
func storeAddr(dst []byte, col []flowrec.Addr, stride int) {
	for i, a := range col {
		copy(dst[i*stride:], a[:])
	}
}

// Decoder parses the messages of one framing, maintaining the template
// cache required to interpret data sets. Templates are cached per
// exporter stream, the observation domain or source ID of the message
// header, as RFC 7011 scopes them: exporters that share a decoder cannot
// evict each other's templates.
type Decoder struct {
	f         *Framing
	templates map[uint64]template // key: stream<<16 | template ID
}

// NewDecoder returns a decoder for f with an empty template cache.
func NewDecoder(f *Framing) *Decoder {
	return &Decoder{f: f, templates: make(map[uint64]template)}
}

func tplKey(stream uint32, tplID uint16) uint64 {
	return uint64(stream)<<16 | uint64(tplID)
}

// CheckHeader reports whether msg starts with a header of this framing:
// long enough to hold one, the framing's version, and, where the header
// carries the message length, the length msg has. DecodeBatch checks it
// first; a collector checks it on arrival, to report a datagram that is
// not this framing's export without decoding it.
func (f *Framing) CheckHeader(msg []byte) error {
	be := binary.BigEndian
	if len(msg) < f.HeaderLen {
		return fmt.Errorf("%s: message too short (%d bytes)", f.Name, len(msg))
	}
	if v := be.Uint16(msg[0:]); v != f.Version {
		return fmt.Errorf("%s: unexpected version %d", f.Name, v)
	}
	if l := int(be.Uint16(msg[2:])); f.HasLength && l != len(msg) {
		return fmt.Errorf("%s: length field %d does not match message size %d", f.Name, l, len(msg))
	}
	return nil
}

// DecodeBatch parses one message, appending the flow records of all data
// sets to dst, and returns how many rows were appended. It fills the
// columns dst stores: a field whose column dst lacks is skipped, as an
// unknown field is, and a stored column the template lacks decodes as
// zero, so a projected dst comes back with exactly its own columns. A
// data set whose template is unknown is an error (the encoder always
// sends the template first); on error dst is rolled back to its original
// length. Re-announcements of an unchanged template do not allocate, so
// a steady-state decode loop over a reused dst performs zero allocations
// per message.
func (d *Decoder) DecodeBatch(dst *flowrec.Batch, msg []byte) (int, error) {
	f := d.f
	be := binary.BigEndian
	if err := f.CheckHeader(msg); err != nil {
		return 0, err
	}
	stream := be.Uint32(msg[f.StreamOff:])
	before := dst.Len()
	for off := f.HeaderLen; off+4 <= len(msg); {
		setID := be.Uint16(msg[off:])
		setLen := int(be.Uint16(msg[off+2:]))
		if setLen < 4 || off+setLen > len(msg) {
			dst.Truncate(before)
			return 0, fmt.Errorf("%s: invalid set length %d at offset %d", f.Name, setLen, off)
		}
		body := msg[off+4 : off+setLen]
		var err error
		switch {
		case setID == f.TemplateSet:
			err = d.parseTemplates(stream, body)
		case setID >= 256:
			err = d.parseData(dst, stream, setID, body)
		default:
			// Options templates and other reserved sets are skipped.
		}
		if err != nil {
			dst.Truncate(before)
			return 0, err
		}
		off += setLen
	}
	return dst.Len() - before, nil
}

func (d *Decoder) parseTemplates(stream uint32, body []byte) error {
	be := binary.BigEndian
	for off := 0; off+4 <= len(body); {
		tplID := be.Uint16(body[off:])
		count := int(be.Uint16(body[off+2:]))
		off += 4
		if off+4*count > len(body) {
			return fmt.Errorf("%s: truncated template %d", d.f.Name, tplID)
		}
		key := tplKey(stream, tplID)
		// Exporters re-announce templates in every message; only allocate
		// and store when the template actually changed.
		if !templateUnchanged(d.templates[key].fields, body[off:], count) {
			tpl := template{fields: make([]field, count)}
			for i := range tpl.fields {
				id, length := be.Uint16(body[off+4*i:]), be.Uint16(body[off+4*i+2:])
				tpl.fields[i] = field{id: id, length: length, col: d.f.column(id, length)}
				tpl.recLen += int(length)
			}
			d.templates[key] = tpl
		}
		off += 4 * count
	}
	return nil
}

// templateUnchanged reports whether the cached template matches the
// wire-format field list starting at body.
func templateUnchanged(cached []field, body []byte, count int) bool {
	if len(cached) != count {
		return false
	}
	be := binary.BigEndian
	for i, fl := range cached {
		if fl.id != be.Uint16(body[4*i:]) || fl.length != be.Uint16(body[4*i+2:]) {
			return false
		}
	}
	return true
}

// column resolves an announced field to the column it decodes into.
// Zero-length fields carry no value; resolving them to colSkip is also
// what lets parseData read protocol, flags and direction as a 1-byte
// field whatever width a hostile template announces.
func (f *Framing) column(id, length uint16) uint8 {
	switch {
	case length == 0:
		return colSkip
	case id == f.StartID:
		return colStart
	case id == f.EndID:
		return colEnd
	}
	switch id {
	case fieldSrcIPv4:
		return colSrcIP
	case fieldDstIPv4:
		return colDstIP
	case fieldBytes:
		return colBytes
	case fieldPackets:
		return colPackets
	case fieldSrcPort:
		return colSrcPort
	case fieldDstPort:
		return colDstPort
	case fieldProtocol:
		return colProto
	case fieldTCPFlags:
		return colTCPFlags
	case fieldDirection:
		return colDir
	case fieldInIf:
		return colInIf
	case fieldOutIf:
		return colOutIf
	case fieldSrcAS:
		return colSrcAS
	case fieldDstAS:
		return colDstAS
	}
	return colSkip
}

func (d *Decoder) parseData(dst *flowrec.Batch, stream uint32, tplID uint16, body []byte) error {
	tpl, ok := d.templates[tplKey(stream, tplID)]
	if !ok {
		return fmt.Errorf("%s: data set %d before its template", d.f.Name, tplID)
	}
	if tpl.recLen == 0 {
		return fmt.Errorf("%s: template %d has zero length", d.f.Name, tplID)
	}
	// The set holds n whole records; trailing bytes shorter than one
	// (v9 padding) are not a record. Every column dst stores grows by n
	// zeroed rows at once, so a stored column the template lacks decodes
	// as zero, and then each field of a stored column fills it for all n
	// records, reading at a stride of one record; the other fields are
	// skipped. A field the template repeats overwrites in template order.
	n, stride := len(body)/tpl.recLen, tpl.recLen
	if n == 0 {
		return nil
	}
	cols, lo := dst.Columns(), dst.Len()
	dst.StartNs = extend(dst.StartNs, cols, flowrec.ColStartNs, n)
	dst.EndNs = extend(dst.EndNs, cols, flowrec.ColEndNs, n)
	dst.SrcIP = extend(dst.SrcIP, cols, flowrec.ColSrcIP, n)
	dst.DstIP = extend(dst.DstIP, cols, flowrec.ColDstIP, n)
	dst.SrcPort = extend(dst.SrcPort, cols, flowrec.ColSrcPort, n)
	dst.DstPort = extend(dst.DstPort, cols, flowrec.ColDstPort, n)
	dst.Proto = extend(dst.Proto, cols, flowrec.ColProto, n)
	dst.Bytes = extend(dst.Bytes, cols, flowrec.ColBytes, n)
	dst.Packets = extend(dst.Packets, cols, flowrec.ColPackets, n)
	dst.SrcAS = extend(dst.SrcAS, cols, flowrec.ColSrcAS, n)
	dst.DstAS = extend(dst.DstAS, cols, flowrec.ColDstAS, n)
	dst.InIf = extend(dst.InIf, cols, flowrec.ColInIf, n)
	dst.OutIf = extend(dst.OutIf, cols, flowrec.ColOutIf, n)
	dst.Dir = extend(dst.Dir, cols, flowrec.ColDir, n)
	dst.TCPFlags = extend(dst.TCPFlags, cols, flowrec.ColTCPFlags, n)
	off := 0
	for _, fl := range tpl.fields {
		src, w := body[off:], int(fl.length)
		off += w
		if cols&opColumn[fl.col] == 0 {
			continue // colSkip, or a column dst does not store
		}
		switch fl.col {
		case colSrcIP:
			loadAddr(dst.SrcIP[lo:], src, stride, w)
		case colDstIP:
			loadAddr(dst.DstIP[lo:], src, stride, w)
		case colBytes:
			loadUint(dst.Bytes[lo:], src, stride, w)
		case colPackets:
			loadUint(dst.Packets[lo:], src, stride, w)
		case colStart:
			loadSeconds(dst.StartNs[lo:], src, stride, w)
		case colEnd:
			loadSeconds(dst.EndNs[lo:], src, stride, w)
		case colSrcPort:
			loadUint(dst.SrcPort[lo:], src, stride, w)
		case colDstPort:
			loadUint(dst.DstPort[lo:], src, stride, w)
		case colProto: // protocol, flags and direction are the first byte
			loadUint(dst.Proto[lo:], src, stride, 1)
		case colTCPFlags:
			loadUint(dst.TCPFlags[lo:], src, stride, 1)
		case colDir:
			loadUint(dst.Dir[lo:], src, stride, 1)
		case colInIf:
			loadUint(dst.InIf[lo:], src, stride, w)
		case colOutIf:
			loadUint(dst.OutIf[lo:], src, stride, w)
		case colSrcAS:
			loadUint(dst.SrcAS[lo:], src, stride, w)
		case colDstAS:
			loadUint(dst.DstAS[lo:], src, stride, w)
		}
	}
	return nil
}

// extend lengthens a column the set c stores by n zeroed elements; an
// absent one stays nil.
func extend[T any](s []T, c, col flowrec.Columns, n int) []T {
	if c&col == 0 {
		return s
	}
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// loadUint sets col[i] to the w-byte big-endian field at src[i*stride:],
// keeping the low bits when the column is narrower. The width is switched
// on once, outside the loops: the standard template's 1-, 2-, 4- and
// 8-byte fields are single loads, and beUint serves any other width a
// template may announce.
func loadUint[T ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int64](col []T, src []byte, stride, w int) {
	be := binary.BigEndian
	switch w {
	case 1:
		for i := range col {
			col[i] = T(src[i*stride])
		}
	case 2:
		for i := range col {
			col[i] = T(be.Uint16(src[i*stride:]))
		}
	case 4:
		for i := range col {
			col[i] = T(be.Uint32(src[i*stride:]))
		}
	case 8:
		for i := range col {
			col[i] = T(be.Uint64(src[i*stride:]))
		}
	default:
		for i := range col {
			col[i] = T(beUint(src[i*stride:][:w]))
		}
	}
}

// loadSeconds is loadUint for a timestamp field, which carries epoch
// seconds.
func loadSeconds(col []int64, src []byte, stride, w int) {
	loadUint(col, src, stride, w)
	for i := range col {
		col[i] *= int64(time.Second)
	}
}

// loadAddr copies the leading min(w, 4) bytes of the field at
// src[i*stride:] over the address in col[i].
func loadAddr(col []flowrec.Addr, src []byte, stride, w int) {
	if w >= 4 {
		for i := range col {
			col[i] = flowrec.Addr(src[i*stride:])
		}
		return
	}
	for i := range col {
		copy(col[i][:], src[i*stride:][:w])
	}
}

// beUint reads a big-endian unsigned integer of any width, keeping its
// low 64 bits; template lengths are untrusted, so it takes whatever width
// was announced.
func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}
