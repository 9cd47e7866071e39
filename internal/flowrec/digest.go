package flowrec

import (
	"encoding/binary"
	"hash/crc32"
	"unsafe"
)

// castagnoli is the CRC-32C polynomial's table; hash/crc32 computes it
// with the CPU's CRC32 instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the host lays integers out
// little-endian, the digest's byte order, so a column's memory is its
// digest image as it stands.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Digest is a CRC-32C (Castagnoli) of the batch: its column set as two
// little-endian bytes, then every column it stores in column order (the
// bit order of Columns), each value little-endian and each address in
// network order. It reads the stored rows only, not the columns' spare
// capacity, so batches with the same Columns and the same rows have the
// same digest on any host. A CRC-32C catches every single-bit error and
// every burst of up to 32 bits, and other damage but for one time in 2³².
// The replay pump sends the digest of each bucket it exports, and the
// bridge recomputes it over the bucket it decoded.
func (b *Batch) Digest() uint32 {
	crc := digestSet(b.Columns())
	crc = digestInts(crc, b.StartNs)
	crc = digestInts(crc, b.EndNs)
	crc = crc32.Update(crc, castagnoli, columnBytes(b.SrcIP))
	crc = crc32.Update(crc, castagnoli, columnBytes(b.DstIP))
	crc = digestInts(crc, b.SrcPort)
	crc = digestInts(crc, b.DstPort)
	crc = digestInts(crc, b.Proto)
	crc = digestInts(crc, b.Bytes)
	crc = digestInts(crc, b.Packets)
	crc = digestInts(crc, b.SrcAS)
	crc = digestInts(crc, b.DstAS)
	crc = digestInts(crc, b.InIf)
	crc = digestInts(crc, b.OutIf)
	crc = digestInts(crc, b.Dir)
	return digestInts(crc, b.TCPFlags)
}

// digestSet is crc32.Update(0, castagnoli, set as two little-endian
// bytes), by hash/crc32's own table loop: a byte slice handed to Update
// escapes, and would cost every digest an allocation.
func digestSet(set Columns) uint32 {
	crc := ^uint32(0)
	for _, v := range [2]byte{byte(set), byte(set >> 8)} {
		crc = castagnoli[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// columnBytes is the memory of a column's rows (nil for an absent column).
func columnBytes[T any](col []T) []byte {
	if len(col) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(col))), len(col)*int(unsafe.Sizeof(col[0])))
}

// digestInts adds an integer column to crc, each value little-endian: its
// memory as it stands on a little-endian host, byte-reversed value by
// value on any other.
func digestInts[T ~int64 | ~uint64 | ~uint32 | ~uint16 | ~uint8](crc uint32, col []T) uint32 {
	raw := columnBytes(col)
	if size := int(unsafe.Sizeof(T(0))); !hostLittleEndian && size > 1 {
		return digestSwapped(crc, raw, size)
	}
	return crc32.Update(crc, castagnoli, raw)
}

// digestSwapped adds raw, values of size bytes each, to crc with the bytes
// of every value reversed.
func digestSwapped(crc uint32, raw []byte, size int) uint32 {
	var buf [512]byte // a multiple of every value size
	for len(raw) > 0 {
		n := min(len(raw), len(buf))
		for i := 0; i < n; i += size {
			for j := range size {
				buf[i+j] = raw[i+size-1-j]
			}
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
		raw = raw[n:]
	}
	return crc
}
