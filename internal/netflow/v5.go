// Package netflow implements the Cisco NetFlow version 5 and version 9
// export formats used by the ISP, EDU and mobile vantage points of "The
// Lockdown Effect" (IMC 2020). Only the features the analyses need are
// implemented — IPv4 flow records with byte/packet counters, ports,
// protocol, AS numbers and interfaces.
//
// Version 5 is the fixed-layout format and is implemented here in full
// (EncodeV5Batch, DecodeV5Batch). Version 9 is template-based and shares
// everything but its framing with IPFIX, so its codec is package tmpl;
// this package holds the v9 framing and the V9Encoder / NewV9Decoder names
// over it. Both are append-style: encoders append one packet to a
// caller-supplied byte slice and decoders append rows to a caller-supplied
// flowrec.Batch, so a steady-state export or collect loop that reuses its
// buffer and batch performs zero allocations per record.
//
// The v5 wire format follows the published specification and interoperates
// with standard tooling. The v9 framing does too, with one known
// deviation: RFC 3954 defines FIRST_SWITCHED / LAST_SWITCHED (fields 22 /
// 21) as sysUptime-relative milliseconds, and this codec writes epoch
// seconds into them with the header's sysUptime pinned at one hour. A
// standard v9 collector therefore reads wrong flow timestamps; our own
// decoder round-trips them exactly. The wire bytes are pinned by the
// golden-packet tests, so changing this is its own change.
package netflow

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"lockdown/internal/flowrec"
)

// V5 wire-format constants.
const (
	v5Version      = 5
	v5HeaderLen    = 24
	v5RecordLen    = 48
	V5MaxRecords   = 30 // per RFC-less Cisco spec, max records per packet
	v5EngineType   = 0
	v5EngineID     = 0
	v5SamplingMode = 0

	// uptimeAtExport is the router uptime the encoder stamps on every
	// packet: flows that started up to an hour before export stay
	// representable.
	uptimeAtExport = time.Hour
)

// V5Header is the export metadata of one NetFlow v5 packet.
type V5Header struct {
	SysUptime    time.Duration
	ExportTime   time.Time
	FlowSequence uint32
	Count        int
}

// EncodeV5Batch appends one NetFlow v5 packet carrying rows [lo, hi) of b
// to dst and returns the extended slice. At most V5MaxRecords rows fit in
// one packet. dst may be nil; a caller that reuses the returned slice
// across packets encodes with zero allocations once the buffer has grown
// to packet size. The record layout is fixed, so a field whose column b
// does not store is written as 0 — the rule the template decoder applies
// to a field its template lacks — and a projected batch travels like any
// other (Dir, which v5 does not carry, is never read). On error dst is
// returned unmodified.
//
// exportTime stamps the header; seq is the cumulative flow sequence
// counter. NetFlow v5 expresses flow start/end as router-uptime offsets in
// milliseconds. The encoder places the export time at an uptime of one
// hour, so flows that started up to an hour before export remain
// representable.
func EncodeV5Batch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time, seq uint32) ([]byte, error) {
	return EncodeV5StreamBatch(dst, b, lo, hi, exportTime, seq, v5EngineID)
}

// EncodeV5StreamBatch is EncodeV5Batch with an explicit engine ID — the
// only exporter-identity field the v5 header carries, and therefore the
// v5 stand-in for the NetFlow v9 source ID / IPFIX observation domain.
// Multi-exporter collectors (the sharded replay cluster) use it to demux
// interleaved streams; EncodeV5Batch is the engineID=0 special case and
// produces byte-identical packets.
func EncodeV5StreamBatch(dst []byte, b *flowrec.Batch, lo, hi int, exportTime time.Time, seq uint32, engineID uint8) ([]byte, error) {
	n := hi - lo
	if n <= 0 {
		return dst, fmt.Errorf("netflow: no records to encode")
	}
	if n > V5MaxRecords {
		return dst, fmt.Errorf("netflow: %d records exceed the v5 packet limit of %d", n, V5MaxRecords)
	}
	if lo < 0 || hi > b.Len() {
		return dst, fmt.Errorf("netflow: rows [%d, %d) outside a batch of %d", lo, hi, b.Len())
	}
	off0 := len(dst)
	dst = slices.Grow(dst, v5HeaderLen+n*v5RecordLen)[:off0+v5HeaderLen+n*v5RecordLen]
	buf := dst[off0:]
	be := binary.BigEndian
	be.PutUint16(buf[0:], v5Version)
	be.PutUint16(buf[2:], uint16(n))
	be.PutUint32(buf[4:], uint32(uptimeAtExport.Milliseconds()))
	be.PutUint32(buf[8:], uint32(exportTime.Unix()))
	be.PutUint32(buf[12:], uint32(exportTime.Nanosecond()))
	be.PutUint32(buf[16:], seq)
	buf[20] = v5EngineType
	buf[21] = engineID
	be.PutUint16(buf[22:], v5SamplingMode)

	exportNs := exportTime.UnixNano()
	for i := lo; i < hi; i++ {
		off := v5HeaderLen + (i-lo)*v5RecordLen
		src, dst := at(b.SrcIP, i), at(b.DstIP, i)
		copy(buf[off+0:], src[:])
		copy(buf[off+4:], dst[:])
		be.PutUint32(buf[off+8:], 0) // next hop 0.0.0.0 (buffer may be reused)
		be.PutUint16(buf[off+12:], at(b.InIf, i))
		be.PutUint16(buf[off+14:], at(b.OutIf, i))
		be.PutUint32(buf[off+16:], uint32(at(b.Packets, i)))
		be.PutUint32(buf[off+20:], uint32(at(b.Bytes, i)))
		be.PutUint32(buf[off+24:], uptimeMs(b.StartNs, i, exportNs))
		be.PutUint32(buf[off+28:], uptimeMs(b.EndNs, i, exportNs))
		be.PutUint16(buf[off+32:], at(b.SrcPort, i))
		be.PutUint16(buf[off+34:], at(b.DstPort, i))
		buf[off+36] = 0 // pad
		buf[off+37] = at(b.TCPFlags, i)
		buf[off+38] = byte(at(b.Proto, i))
		buf[off+39] = 0 // ToS
		be.PutUint16(buf[off+40:], uint16(at(b.SrcAS, i)))
		be.PutUint16(buf[off+42:], uint16(at(b.DstAS, i)))
		buf[off+44] = 24              // src mask (informational)
		buf[off+45] = 24              // dst mask
		be.PutUint16(buf[off+46:], 0) // pad
	}
	return dst, nil
}

// at is row i of a column, 0 when the batch does not store it (nil).
func at[T any](col []T, i int) (v T) {
	if col != nil {
		v = col[i]
	}
	return v
}

// uptimeMs is row i's timestamp as the router-uptime milliseconds of a v5
// record exported at exportNs with an uptime of one hour, clamped to 0 —
// which is also what an absent timestamp column writes.
func uptimeMs(col []int64, i int, exportNs int64) uint32 {
	if col == nil {
		return 0
	}
	return uint32(max(uptimeAtExport-time.Duration(exportNs-col[i]), 0).Milliseconds())
}

// CheckV5Header reports whether pkt is a whole NetFlow v5 packet by its
// header: long enough to hold one, version 5, a record count of 1 to
// V5MaxRecords, and at least that many records after it. DecodeV5Batch
// checks it first; a collector checks it on arrival, to report a datagram
// that is not v5 export without decoding it.
func CheckV5Header(pkt []byte) error {
	be := binary.BigEndian
	if len(pkt) < v5HeaderLen {
		return fmt.Errorf("netflow: packet too short (%d bytes)", len(pkt))
	}
	if v := be.Uint16(pkt[0:]); v != v5Version {
		return fmt.Errorf("netflow: unexpected version %d", v)
	}
	count := int(be.Uint16(pkt[2:]))
	if count == 0 || count > V5MaxRecords {
		return fmt.Errorf("netflow: implausible record count %d", count)
	}
	if len(pkt) < v5HeaderLen+count*v5RecordLen {
		return fmt.Errorf("netflow: truncated packet: %d bytes for %d records", len(pkt), count)
	}
	return nil
}

// DecodeV5Batch parses a NetFlow v5 packet, appending its records to dst
// and returning the header metadata. It fills the columns dst stores and
// no others, so a projected dst comes back with exactly its own columns;
// Dir, which v5 does not carry, decodes as DirUnknown. A caller that
// reuses dst across packets (Reset between packets, or one growing batch)
// decodes with zero allocations in the steady state. On error dst is left
// as it was.
func DecodeV5Batch(dst *flowrec.Batch, pkt []byte) (V5Header, error) {
	if err := CheckV5Header(pkt); err != nil {
		return V5Header{}, err
	}
	be := binary.BigEndian
	count := int(be.Uint16(pkt[2:]))
	uptime := time.Duration(be.Uint32(pkt[4:])) * time.Millisecond
	export := time.Unix(int64(be.Uint32(pkt[8:])), int64(be.Uint32(pkt[12:]))).UTC()
	h := V5Header{
		SysUptime:    uptime,
		ExportTime:   export,
		FlowSequence: be.Uint32(pkt[16:]),
		Count:        count,
	}
	bootNs := export.UnixNano() - int64(uptime)
	ms := int64(time.Millisecond)
	c := dst.Columns()
	dst.Grow(count)
	for i := 0; i < count; i++ {
		rec := pkt[v5HeaderLen+i*v5RecordLen:][:v5RecordLen]
		if c&flowrec.ColStartNs != 0 {
			dst.StartNs = append(dst.StartNs, bootNs+int64(be.Uint32(rec[24:]))*ms)
		}
		if c&flowrec.ColEndNs != 0 {
			dst.EndNs = append(dst.EndNs, bootNs+int64(be.Uint32(rec[28:]))*ms)
		}
		if c&flowrec.ColSrcIP != 0 {
			dst.SrcIP = append(dst.SrcIP, flowrec.Addr(rec[0:4]))
		}
		if c&flowrec.ColDstIP != 0 {
			dst.DstIP = append(dst.DstIP, flowrec.Addr(rec[4:8]))
		}
		if c&flowrec.ColSrcPort != 0 {
			dst.SrcPort = append(dst.SrcPort, be.Uint16(rec[32:]))
		}
		if c&flowrec.ColDstPort != 0 {
			dst.DstPort = append(dst.DstPort, be.Uint16(rec[34:]))
		}
		if c&flowrec.ColProto != 0 {
			dst.Proto = append(dst.Proto, flowrec.Proto(rec[38]))
		}
		if c&flowrec.ColBytes != 0 {
			dst.Bytes = append(dst.Bytes, uint64(be.Uint32(rec[20:])))
		}
		if c&flowrec.ColPackets != 0 {
			dst.Packets = append(dst.Packets, uint64(be.Uint32(rec[16:])))
		}
		if c&flowrec.ColSrcAS != 0 {
			dst.SrcAS = append(dst.SrcAS, uint32(be.Uint16(rec[40:])))
		}
		if c&flowrec.ColDstAS != 0 {
			dst.DstAS = append(dst.DstAS, uint32(be.Uint16(rec[42:])))
		}
		if c&flowrec.ColInIf != 0 {
			dst.InIf = append(dst.InIf, be.Uint16(rec[12:]))
		}
		if c&flowrec.ColOutIf != 0 {
			dst.OutIf = append(dst.OutIf, be.Uint16(rec[14:]))
		}
		if c&flowrec.ColDir != 0 {
			dst.Dir = append(dst.Dir, flowrec.DirUnknown)
		}
		if c&flowrec.ColTCPFlags != 0 {
			dst.TCPFlags = append(dst.TCPFlags, rec[37])
		}
	}
	return h, nil
}

// V5EngineID returns the engine ID byte of a NetFlow v5 packet without
// decoding it (0 for packets too short to carry a header — the decoder
// rejects those anyway). Collectors use it to attribute a datagram to
// its exporter stream, mirroring V9SourceID and ipfix.DomainID.
func V5EngineID(pkt []byte) uint8 {
	if len(pkt) < v5HeaderLen {
		return 0
	}
	return pkt[21]
}
