// Package flowstore persists flowrec.Batch values as columnar spans of
// append-only span files and maps them back as read-only views, so the
// dataset cache of package core can spill cold component-hours to disk
// and fault them back in without a decode step.
//
// A span is the column data of one batch (the file format around it is
// described at SpanFile):
//
//	┌────────────────────────────────────────────────────────────┐
//	│ page-aligned start, each blob 64-byte aligned, present     │
//	│ columns only (an absent column is a zero-width blob):      │
//	│   StartNs  int64 ×rows   │ EndNs    int64 ×rows            │
//	│   SrcAddr  4 B   ×rows   │ DstAddr  4 B   ×rows            │
//	│   SrcPort/DstPort uint16 │ Proto    1 B                    │
//	│   Bytes/Packets  uint64  │ SrcAS/DstAS uint32              │
//	│   InIf/OutIf     uint16  │ Dir 1 B  │ TCPFlags 1 B         │
//	└────────────────────────────────────────────────────────────┘
//
// A span carries no header of its own: its row count and column set
// (the batch's flowrec.Columns) fix the layout, and they travel with the
// size and CRC-64 in the span's reference (SpanRef). A fault views
// exactly the columns that were written. All fixed-width values are
// little-endian; an address is its four bytes in network order. On a
// little-endian host every column of a faulted span is a zero-copy slice
// straight into the mapping (the blob alignment makes the casts legal);
// on big-endian or misaligned mappings the multi-byte numeric columns
// are decoded into heap slices instead, so the format is portable either
// way. The byte-typed columns — addresses included — alias the span on
// any host.
//
// The span's CRC is verified before any row is served, so a truncated
// or corrupted file surfaces as an error from Span — never as wrong
// rows — and the cache regenerates the batch from its source instead.
package flowstore

import (
	"encoding/binary"
	"hash/crc64"
	"sync"
	"unsafe"

	"lockdown/internal/flowrec"
)

// blobAlign is the alignment of every column blob inside a span.
const blobAlign = 64

// maxRows bounds a span's row count against a corrupted index entry
// claiming an absurd layout.
const maxRows = 1 << 40

// Column indices of a span's blobs, in file order: blob c holds the
// column of flowrec.Columns bit 1<<c.
const (
	colStartNs = iota
	colEndNs
	colSrcAddr
	colDstAddr
	colSrcPort
	colDstPort
	colProto
	colBytes
	colPackets
	colSrcAS
	colDstAS
	colInIf
	colOutIf
	colDir
	colTCPFlags
	numCols
)

// colWidth is the per-row byte width of each blob.
var colWidth = [numCols]int{
	colStartNs: 8, colEndNs: 8,
	colSrcAddr: addrWidth, colDstAddr: addrWidth,
	colSrcPort: 2, colDstPort: 2, colProto: 1,
	colBytes: 8, colPackets: 8, colSrcAS: 4, colDstAS: 4,
	colInIf: 2, colOutIf: 2, colDir: 1, colTCPFlags: 1,
}

// addrWidth is the size of a flowrec.Addr, in memory and on file.
const addrWidth = int(unsafe.Sizeof(flowrec.Addr{}))

var crcTable = crc64.MakeTable(crc64.ECMA)

// hostLE reports whether the host is little-endian, which enables the
// zero-copy column views.
var hostLE = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// align64 rounds n up to the blob alignment.
func align64(n int) int { return (n + blobAlign - 1) &^ (blobAlign - 1) }

// blobBytes is the size of blob c in a span of rows rows storing cols:
// zero for an absent column.
func blobBytes(c, rows int, cols flowrec.Columns) int {
	if cols&(1<<c) == 0 {
		return 0
	}
	return rows * colWidth[c]
}

// layout computes the blob offsets for a row count and column set,
// relative to the span's (page-aligned) start, and the span's size.
func layout(rows int, cols flowrec.Columns) (offs [numCols]int, size int) {
	off := 0
	for c := 0; c < numCols; c++ {
		off = align64(off)
		offs[c] = off
		off += blobBytes(c, rows, cols)
	}
	return offs, off
}

// writeBufPool recycles the span-assembly buffers across spills: a cache
// evicting thousands of batches under memory pressure should not churn a
// span-sized allocation per eviction.
var writeBufPool sync.Pool

// getWriteBuf returns a zeroed buffer of exactly size bytes. Zeroing a
// pooled buffer is required, not cosmetic: the alignment gaps are never
// overwritten and must read as zero.
func getWriteBuf(size int) []byte {
	if v := writeBufPool.Get(); v != nil {
		if buf := v.([]byte); cap(buf) >= size {
			buf = buf[:size]
			clear(buf)
			return buf
		}
	}
	return make([]byte, size)
}

// encodeSpan writes the batch's span image into buf, a zeroed buffer of
// the layout's size. A column the batch does not store is nil and writes
// nothing into its zero-width blob.
func encodeSpan(buf []byte, offs [numCols]int, b *flowrec.Batch) {
	putInt64s(buf, offs[colStartNs], b.StartNs)
	putInt64s(buf, offs[colEndNs], b.EndNs)
	copy(buf[offs[colSrcAddr]:], rawBytes(b.SrcIP))
	copy(buf[offs[colDstAddr]:], rawBytes(b.DstIP))
	putUint16s(buf, offs[colSrcPort], b.SrcPort)
	putUint16s(buf, offs[colDstPort], b.DstPort)
	copy(buf[offs[colProto]:], rawBytes(b.Proto))
	putUint64s(buf, offs[colBytes], b.Bytes)
	putUint64s(buf, offs[colPackets], b.Packets)
	putUint32s(buf, offs[colSrcAS], b.SrcAS)
	putUint32s(buf, offs[colDstAS], b.DstAS)
	putUint16s(buf, offs[colInIf], b.InIf)
	putUint16s(buf, offs[colOutIf], b.OutIf)
	copy(buf[offs[colDir]:], rawBytes(b.Dir))
	copy(buf[offs[colTCPFlags]:], b.TCPFlags)
}

// Segment is one faulted, checksum-verified span. On linux the span is
// mmap'ed read-only and the columns of Batch alias the mapping directly;
// elsewhere (or when mmap fails) the span is read onto the heap and the
// same views point there. A Segment stays valid until Close; the owner
// must not Close it while view batches built from it are in use.
type Segment struct {
	data   []byte
	mapped bool
	rows   int
	cols   flowrec.Columns
	offs   [numCols]int
}

// Mapped reports whether the span is served from an mmap (as opposed
// to the heap fallback).
func (s *Segment) Mapped() bool { return s.mapped }

// col returns the raw bytes of one blob, empty for an absent column.
func (s *Segment) col(c int) []byte {
	return s.data[s.offs[c] : s.offs[c]+blobBytes(c, s.rows, s.cols)]
}

// Batch builds a read-only view batch over the span, storing the span's
// column set. Columns alias the span memory when the host allows it
// (always for the byte-typed ones; little-endian and an aligned mapping
// for the rest) and are decoded onto the heap otherwise. The returned
// batch is marked as a view (flowrec.Batch.IsView), its columns have
// len == cap so appends copy, and it must not be used after the segment
// is closed.
// heapBytes is the heap footprint of the view — the part of the batch
// the OS cannot reclaim by dropping pages: the decoded columns, and the
// whole span when it is a heap buffer rather than a mapping.
func (s *Segment) Batch() (b *flowrec.Batch, heapBytes int64) {
	rows := s.rows
	b = flowrec.NewProjected(0, s.cols)

	b.SrcIP = viewBytes[flowrec.Addr](s.col(colSrcAddr), rows)
	b.DstIP = viewBytes[flowrec.Addr](s.col(colDstAddr), rows)
	b.Proto = viewBytes[flowrec.Proto](s.col(colProto), rows)
	b.Dir = viewBytes[flowrec.Direction](s.col(colDir), rows)
	b.TCPFlags = viewBytes[uint8](s.col(colTCPFlags), rows)

	var copied int64 // bytes that landed on the heap instead of aliasing the span
	b.StartNs, copied = viewInt64(s.col(colStartNs), rows, copied)
	b.EndNs, copied = viewInt64(s.col(colEndNs), rows, copied)
	b.SrcPort, copied = viewUint16(s.col(colSrcPort), rows, copied)
	b.DstPort, copied = viewUint16(s.col(colDstPort), rows, copied)
	b.Bytes, copied = viewUint64(s.col(colBytes), rows, copied)
	b.Packets, copied = viewUint64(s.col(colPackets), rows, copied)
	b.SrcAS, copied = viewUint32(s.col(colSrcAS), rows, copied)
	b.DstAS, copied = viewUint32(s.col(colDstAS), rows, copied)
	b.InIf, copied = viewUint16(s.col(colInIf), rows, copied)
	b.OutIf, copied = viewUint16(s.col(colOutIf), rows, copied)

	heapBytes = int64(unsafe.Sizeof(flowrec.Batch{})) + copied
	if !s.mapped {
		heapBytes += int64(len(s.data))
	}
	b.MarkView()
	return b, heapBytes
}

// Evicted hints the OS that the span's pages will not be needed soon
// (MADV_DONTNEED on linux, no-op elsewhere; spans are page-aligned by
// format). The cache calls it when the last view over the span is
// dropped; the next access re-reads the pages from the file.
func (s *Segment) Evicted() {
	adviseDontNeed(s.data, s.mapped)
}

// Close releases the mapping (or the heap copy). View batches built from
// the segment must not be used afterwards.
func (s *Segment) Close() error {
	data, mapped := s.data, s.mapped
	s.data, s.mapped, s.rows = nil, false, 0
	return unmapSpan(data, mapped)
}

// ---- column encoding / view helpers ----
//
// On a little-endian host the on-file representation of the numeric
// columns equals their in-memory representation, so encoding is a memcpy
// and decoding is a pointer cast (when the blob is suitably aligned).
// The per-element fallbacks keep the format correct everywhere else.

// rawBytes views a column as its backing bytes: the file representation
// of a byte-typed column on any host, of a numeric one on little-endian
// hosts only.
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// viewBytes reinterprets a blob as a column of a byte-typed element
// (alignment 1: uint8, Proto, Direction, Addr) with len == cap; legal on
// any host and at any address. An empty blob — no rows, or an absent
// column — is a nil column.
func viewBytes[T any](blob []byte, rows int) []T {
	if len(blob) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&blob[0])), rows)[:rows:rows]
}

// view casts a blob to a typed column slice with len == cap when the host
// representation matches the file; otherwise it decodes into a fresh heap
// slice via dec. copied accumulates heap bytes for the cache's accounting.
func view[T any](blob []byte, rows int, copied int64, dec func([]byte, []T)) ([]T, int64) {
	if len(blob) == 0 {
		return nil, copied
	}
	var t T
	size := int(unsafe.Sizeof(t))
	if hostLE && uintptr(unsafe.Pointer(&blob[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&blob[0])), rows)[:rows:rows], copied
	}
	out := make([]T, rows)
	dec(blob, out)
	return out, copied + int64(rows*size)
}

func viewInt64(blob []byte, rows int, copied int64) ([]int64, int64) {
	return view(blob, rows, copied, func(b []byte, out []int64) {
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
		}
	})
}

func viewUint64(blob []byte, rows int, copied int64) ([]uint64, int64) {
	return view(blob, rows, copied, func(b []byte, out []uint64) {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	})
}

func viewUint32(blob []byte, rows int, copied int64) ([]uint32, int64) {
	return view(blob, rows, copied, func(b []byte, out []uint32) {
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[i*4:])
		}
	})
}

func viewUint16(blob []byte, rows int, copied int64) ([]uint16, int64) {
	return view(blob, rows, copied, func(b []byte, out []uint16) {
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(b[i*2:])
		}
	})
}

func putInt64s(buf []byte, off int, s []int64) {
	if hostLE {
		copy(buf[off:], rawBytes(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(buf[off+i*8:], uint64(v))
	}
}

func putUint64s(buf []byte, off int, s []uint64) {
	if hostLE {
		copy(buf[off:], rawBytes(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(buf[off+i*8:], v)
	}
}

func putUint32s(buf []byte, off int, s []uint32) {
	if hostLE {
		copy(buf[off:], rawBytes(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint32(buf[off+i*4:], v)
	}
}

func putUint16s(buf []byte, off int, s []uint16) {
	if hostLE {
		copy(buf[off:], rawBytes(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint16(buf[off+i*2:], v)
	}
}
