package tmpl

import (
	"encoding/binary"
	"fmt"
	"time"

	"lockdown/internal/flowrec"
)

// This file is the reference decoder: the row-at-a-time data-set loop
// parseData replaced, which decodes one record into fifteen locals by a
// switch over every field and then appends one value to each column. It
// is the oracle of the equivalence tests (TestDecodeMatchesReference,
// FuzzDecodeMatchesReference in package tmpl_test), which hold the
// column-major decoder to it with ==, rows and errors alike.

// RefDecodeBatch is DecodeBatch with refParseData in place of parseData;
// it keeps its own template cache in d, so give it a decoder of its own.
func (d *Decoder) RefDecodeBatch(dst *flowrec.Batch, msg []byte) (int, error) {
	f := d.f
	be := binary.BigEndian
	if len(msg) < f.HeaderLen {
		return 0, fmt.Errorf("%s: message too short (%d bytes)", f.Name, len(msg))
	}
	if v := be.Uint16(msg[0:]); v != f.Version {
		return 0, fmt.Errorf("%s: unexpected version %d", f.Name, v)
	}
	if l := int(be.Uint16(msg[2:])); f.HasLength && l != len(msg) {
		return 0, fmt.Errorf("%s: length field %d does not match message size %d", f.Name, l, len(msg))
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
			err = d.refParseData(dst, stream, setID, body)
		}
		if err != nil {
			dst.Truncate(before)
			return 0, err
		}
		off += setLen
	}
	return dst.Len() - before, nil
}

func (d *Decoder) refParseData(dst *flowrec.Batch, stream uint32, tplID uint16, body []byte) error {
	tpl, ok := d.templates[tplKey(stream, tplID)]
	if !ok {
		return fmt.Errorf("%s: data set %d before its template", d.f.Name, tplID)
	}
	if tpl.recLen == 0 {
		return fmt.Errorf("%s: template %d has zero length", d.f.Name, tplID)
	}
	for off := 0; off+tpl.recLen <= len(body); off += tpl.recLen {
		// One row in column types; a field the template lacks stays zero.
		var (
			startNs, endNs   int64
			srcIP, dstIP     flowrec.Addr
			srcPort, dstPort uint16
			proto            flowrec.Proto
			bytes, packets   uint64
			srcAS, dstAS     uint32
			inIf, outIf      uint16
			dir              flowrec.Direction
			tcpFlags         uint8
		)
		pos := off
		for _, fl := range tpl.fields {
			v := body[pos : pos+int(fl.length)]
			pos += int(fl.length)
			switch fl.col {
			case colSrcIP:
				copy(srcIP[:], v)
			case colDstIP:
				copy(dstIP[:], v)
			case colBytes:
				bytes = beUint(v)
			case colPackets:
				packets = beUint(v)
			case colStart:
				startNs = int64(beUint(v)) * int64(time.Second)
			case colEnd:
				endNs = int64(beUint(v)) * int64(time.Second)
			case colSrcPort:
				srcPort = uint16(beUint(v))
			case colDstPort:
				dstPort = uint16(beUint(v))
			case colProto:
				proto = flowrec.Proto(v[0])
			case colTCPFlags:
				tcpFlags = v[0]
			case colDir:
				dir = flowrec.Direction(v[0])
			case colInIf:
				inIf = uint16(beUint(v))
			case colOutIf:
				outIf = uint16(beUint(v))
			case colSrcAS:
				srcAS = uint32(beUint(v))
			case colDstAS:
				dstAS = uint32(beUint(v))
			}
		}
		dst.StartNs = append(dst.StartNs, startNs)
		dst.EndNs = append(dst.EndNs, endNs)
		dst.SrcIP = append(dst.SrcIP, srcIP)
		dst.DstIP = append(dst.DstIP, dstIP)
		dst.SrcPort = append(dst.SrcPort, srcPort)
		dst.DstPort = append(dst.DstPort, dstPort)
		dst.Proto = append(dst.Proto, proto)
		dst.Bytes = append(dst.Bytes, bytes)
		dst.Packets = append(dst.Packets, packets)
		dst.SrcAS = append(dst.SrcAS, srcAS)
		dst.DstAS = append(dst.DstAS, dstAS)
		dst.InIf = append(dst.InIf, inIf)
		dst.OutIf = append(dst.OutIf, outIf)
		dst.Dir = append(dst.Dir, dir)
		dst.TCPFlags = append(dst.TCPFlags, tcpFlags)
	}
	return nil
}
