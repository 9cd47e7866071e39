package flowrec

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// TestDigestImage pins Digest's byte image: the column set, then every
// stored column in column order, integers little-endian and addresses in
// network order, none of the spare capacity. Built with encoding/binary,
// the expected image is the same on any host.
func TestDigestImage(t *testing.T) {
	b := FromRecords(sampleRecords(37))
	b.Grow(100)
	le := binary.LittleEndian
	for _, cols := range []Columns{AllColumns, PortLaneColumns | ColBytes, ColDstIP} {
		p := b.Project(cols)
		img := le.AppendUint16(nil, uint16(cols))
		for c := range NumColumns {
			if !cols.Has(Columns(1) << c) {
				continue
			}
			for i := range p.Len() {
				switch Columns(1) << c {
				case ColStartNs:
					img = le.AppendUint64(img, uint64(p.StartNs[i]))
				case ColEndNs:
					img = le.AppendUint64(img, uint64(p.EndNs[i]))
				case ColSrcIP:
					img = append(img, p.SrcIP[i][:]...)
				case ColDstIP:
					img = append(img, p.DstIP[i][:]...)
				case ColSrcPort:
					img = le.AppendUint16(img, p.SrcPort[i])
				case ColDstPort:
					img = le.AppendUint16(img, p.DstPort[i])
				case ColProto:
					img = append(img, byte(p.Proto[i]))
				case ColBytes:
					img = le.AppendUint64(img, p.Bytes[i])
				case ColPackets:
					img = le.AppendUint64(img, p.Packets[i])
				case ColSrcAS:
					img = le.AppendUint32(img, p.SrcAS[i])
				case ColDstAS:
					img = le.AppendUint32(img, p.DstAS[i])
				case ColInIf:
					img = le.AppendUint16(img, p.InIf[i])
				case ColOutIf:
					img = le.AppendUint16(img, p.OutIf[i])
				case ColDir:
					img = append(img, byte(p.Dir[i]))
				case ColTCPFlags:
					img = append(img, p.TCPFlags[i])
				}
			}
		}
		want := crc32.Checksum(img, castagnoli)
		if got := p.Digest(); got != want {
			t.Errorf("%s: Digest = %#08x, want %#08x", cols, got, want)
		}
		if cols == AllColumns && b.Digest() != want {
			t.Errorf("spare capacity changed the digest")
		}
	}
}

// TestDigestSwappedIsLittleEndian runs the big-endian host's path on any
// host: a column's big-endian image, byte-reversed value by value, digests
// like its little-endian image, over more than one scratch buffer.
func TestDigestSwappedIsLittleEndian(t *testing.T) {
	var be, le []byte
	for i := range 300 {
		v := uint64(i)*0x0102030405060708 + 1
		be = binary.BigEndian.AppendUint64(be, v)
		le = binary.LittleEndian.AppendUint64(le, v)
	}
	if got, want := digestSwapped(7, be, 8), crc32.Update(7, castagnoli, le); got != want {
		t.Fatalf("digestSwapped = %#08x, want %#08x", got, want)
	}
}
