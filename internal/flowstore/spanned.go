package flowstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"sync"

	"lockdown/internal/flowrec"
)

// A span file is the one on-disk format of the store: an append-only
// run of page-aligned spans, made self-describing when it is sealed:
//
//	┌────────────────────────────────────────────────────────────┐
//	│ header page (4096 B): magic "LFSS", version, span count,   │
//	│ index offset/size, CRC-64 of the index, CRC-64 of header   │
//	│ — a hole until the file is sealed, written last            │
//	├────────────────────────────────────────────────────────────┤
//	│ span 0: the column data of one batch, page-aligned         │
//	├────────────────────────────────────────────────────────────┤
//	│ span 1: …                                                  │
//	├────────────────────────────────────────────────────────────┤
//	│ index: span count × {offset, size, rows, crc64, columns},  │
//	│ appended at the next page boundary when the file is sealed │
//	└────────────────────────────────────────────────────────────┘
//
// Page alignment preserves the 64-byte blob alignment inside a span's
// own mapping (so the zero-copy column casts stay legal) and makes
// Segment.Evicted's page-granular madvise valid per span. Append hands
// back a SpanRef; Span maps exactly the referenced bytes and verifies
// their CRC before serving a row. The process that wrote a file reads
// it through the references it kept, sealed or not; OpenSpanned
// recovers the same references from a sealed file's index, and from
// there the read path is the same one. A file whose writer died before
// sealing has no magic and is rejected whole.
const (
	spanMagic      = "LFSS"
	spanVersion    = 5
	headerSize     = 4096
	spanAlign      = headerSize // page alignment of spans and the index
	indexEntrySize = 40
	// maxSpans bounds the span count against a corrupted header claiming
	// an absurd index.
	maxSpans = 1 << 24
	// spanFileSize is the roll-over size: the append that carries a file
	// to it seals the file.
	spanFileSize = 16 << 20
)

// SpannedExt is the file extension of span files.
const SpannedExt = ".lfss"

// ErrSealed is returned by Append once the file has reached its
// roll-over size (or was opened from disk): the caller starts a new one.
var ErrSealed = errors.New("flowstore: span file is sealed")

// alignSpan rounds n up to the span alignment.
func alignSpan(n int64) int64 {
	return (n + spanAlign - 1) &^ (spanAlign - 1)
}

// SpanRef locates one span inside its file and carries what is needed
// to verify and lay out its bytes.
type SpanRef struct {
	Off, Size int64
	Rows      int
	CRC       uint64
	// Cols is the column set of the batch that was appended: the span
	// holds those columns and Segment.Batch views exactly them.
	Cols flowrec.Columns
}

// SpanFile is one span file, either being appended to (Create) or
// opened sealed from disk (OpenSpanned). All methods are safe for
// concurrent use.
type SpanFile struct {
	path string
	f    *os.File

	// Append holds flush shared from before it reserves until its bytes
	// are written; Seal takes it exclusively, so the index never
	// describes a span still in flight.
	flush sync.RWMutex

	mu     sync.Mutex
	end    int64 // next free offset, span-aligned
	index  []SpanRef
	sealed bool // no further appends
	onDisk bool // header and index written; guarded by flush
}

// Create starts an empty span file at path.
func Create(path string) (*SpanFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	return &SpanFile{path: path, f: f, end: headerSize}, nil
}

// Path returns the file's path.
func (sf *SpanFile) Path() string { return sf.path }

// Sealed reports whether the file has stopped accepting appends.
func (sf *SpanFile) Sealed() bool {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.sealed
}

// Refs returns the references of the file's spans, in file order.
func (sf *SpanFile) Refs() []SpanRef {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return append([]SpanRef(nil), sf.index...)
}

// Append writes the batch as the file's next span and returns its
// reference. The offset is reserved under the file's lock; assembling,
// checksumming and writing the span happen outside it, so concurrent
// evictions overlap. The append that carries the file to the roll-over
// size seals it; every later one gets ErrSealed.
func (sf *SpanFile) Append(b *flowrec.Batch) (SpanRef, error) {
	ref, full, err := sf.appendSpan(b)
	if full {
		// A failed seal loses only the file's self-description: this
		// process reads through the references it holds.
		_ = sf.Seal()
	}
	return ref, err
}

func (sf *SpanFile) appendSpan(b *flowrec.Batch) (ref SpanRef, full bool, err error) {
	sf.flush.RLock()
	defer sf.flush.RUnlock()

	offs, size := layout(b.Len(), b.Columns())
	buf := getWriteBuf(size)
	defer writeBufPool.Put(buf)
	encodeSpan(buf, offs, b)
	ref = SpanRef{Size: int64(size), Rows: b.Len(), CRC: crc64.Checksum(buf, crcTable), Cols: b.Columns()}

	sf.mu.Lock()
	if sf.sealed {
		sf.mu.Unlock()
		return SpanRef{}, false, ErrSealed
	}
	ref.Off = sf.end
	sf.end = alignSpan(ref.Off + ref.Size)
	sf.index = append(sf.index, ref)
	full = sf.end >= spanFileSize || len(sf.index) == maxSpans
	sf.sealed = full
	sf.mu.Unlock()

	if _, err := sf.f.WriteAt(buf, ref.Off); err != nil {
		return SpanRef{}, full, fmt.Errorf("flowstore: %w", err)
	}
	if m := metricsPtr.Load(); m != nil {
		m.writes.Add(1)
		m.writeBytes.Add(ref.Size)
	}
	return ref, full, nil
}

// Seal stops appends, waits for those in flight, and writes the index
// and then the header, which makes the file openable by OpenSpanned.
// Sealing twice is harmless.
func (sf *SpanFile) Seal() error {
	sf.mu.Lock()
	sf.sealed = true
	sf.mu.Unlock()
	sf.flush.Lock()
	defer sf.flush.Unlock()
	if sf.onDisk {
		return nil
	}

	index := make([]byte, len(sf.index)*indexEntrySize)
	for k, e := range sf.index {
		binary.LittleEndian.PutUint64(index[k*indexEntrySize:], uint64(e.Off))
		binary.LittleEndian.PutUint64(index[k*indexEntrySize+8:], uint64(e.Size))
		binary.LittleEndian.PutUint64(index[k*indexEntrySize+16:], uint64(e.Rows))
		binary.LittleEndian.PutUint64(index[k*indexEntrySize+24:], e.CRC)
		binary.LittleEndian.PutUint64(index[k*indexEntrySize+32:], uint64(e.Cols))
	}
	h := make([]byte, headerSize)
	copy(h[0:4], spanMagic)
	binary.LittleEndian.PutUint32(h[4:8], spanVersion)
	binary.LittleEndian.PutUint64(h[8:16], uint64(len(sf.index)))
	binary.LittleEndian.PutUint64(h[16:24], uint64(sf.end))
	binary.LittleEndian.PutUint64(h[24:32], uint64(len(index)))
	binary.LittleEndian.PutUint64(h[32:40], crc64.Checksum(index, crcTable))
	// The header CRC is computed with its own field zeroed (it is zero at
	// this point) and covers the whole header page.
	binary.LittleEndian.PutUint64(h[40:48], crc64.Checksum(h, crcTable))

	if _, err := sf.f.WriteAt(index, sf.end); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	if _, err := sf.f.WriteAt(h, 0); err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	sf.onDisk = true
	if m := metricsPtr.Load(); m != nil {
		m.writeBytes.Add(int64(len(index) + headerSize))
	}
	return nil
}

// OpenSpanned opens a sealed span file and verifies its header and
// index; only those two are read, so opening costs two CRC passes over
// at most a few hundred kilobytes whatever the file holds. Span bytes
// are verified by Span, one span at a time. Every rejection shape (no
// header because the writer never sealed, truncation, bad
// magic/version, header or index bit flips, implausible or inconsistent
// index entries) counts as an open failure.
func OpenSpanned(path string) (*SpanFile, error) {
	sf, err := openSpanned(path)
	if err != nil {
		if m := metricsPtr.Load(); m != nil {
			m.openFails.Add(1)
		}
	}
	return sf, err
}

func openSpanned(path string) (*SpanFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flowstore: %w", err)
	}
	sf := &SpanFile{path: path, f: f, sealed: true, onDisk: true}
	if err := sf.readIndex(); err != nil {
		f.Close()
		return nil, err
	}
	return sf, nil
}

// readIndex validates the header page and loads the index it points to.
func (sf *SpanFile) readIndex() error {
	path := sf.path
	fi, err := sf.f.Stat()
	if err != nil {
		return fmt.Errorf("flowstore: %w", err)
	}
	fileSize := fi.Size()
	if fileSize < headerSize {
		return fmt.Errorf("flowstore: %s: truncated header (%d bytes)", path, fileSize)
	}
	h := make([]byte, headerSize)
	if _, err := sf.f.ReadAt(h, 0); err != nil {
		return fmt.Errorf("flowstore: %s: %w", path, err)
	}
	if string(h[0:4]) != spanMagic {
		return fmt.Errorf("flowstore: %s: bad magic %q (unsealed or not a span file)", path, h[0:4])
	}
	if v := binary.LittleEndian.Uint32(h[4:8]); v != spanVersion {
		return fmt.Errorf("flowstore: %s: unsupported version %d (want %d)", path, v, spanVersion)
	}
	wantHeaderCRC := binary.LittleEndian.Uint64(h[40:48])
	clear(h[40:48])
	if got := crc64.Checksum(h, crcTable); got != wantHeaderCRC {
		return fmt.Errorf("flowstore: %s: header checksum mismatch (file %#x, computed %#x)", path, wantHeaderCRC, got)
	}
	count := binary.LittleEndian.Uint64(h[8:16])
	if count == 0 || count > maxSpans {
		return fmt.Errorf("flowstore: %s: implausible span count %d", path, count)
	}
	indexOff := binary.LittleEndian.Uint64(h[16:24])
	indexSize := binary.LittleEndian.Uint64(h[24:32])
	if indexSize != count*indexEntrySize || indexOff < headerSize || indexOff%spanAlign != 0 ||
		indexOff > uint64(fileSize) || indexOff+indexSize != uint64(fileSize) {
		return fmt.Errorf("flowstore: %s: index geometry (off %d, size %d) does not match %d spans in %d bytes",
			path, indexOff, indexSize, count, fileSize)
	}
	index := make([]byte, indexSize)
	if _, err := sf.f.ReadAt(index, int64(indexOff)); err != nil {
		return fmt.Errorf("flowstore: %s: %w", path, err)
	}
	if got := crc64.Checksum(index, crcTable); got != binary.LittleEndian.Uint64(h[32:40]) {
		return fmt.Errorf("flowstore: %s: index checksum mismatch", path)
	}
	refs := make([]SpanRef, count)
	prevEnd := int64(headerSize)
	for k := range refs {
		e := index[k*indexEntrySize:]
		ref := SpanRef{
			Off:  int64(binary.LittleEndian.Uint64(e)),
			Size: int64(binary.LittleEndian.Uint64(e[8:])),
			Rows: int(binary.LittleEndian.Uint64(e[16:])),
			CRC:  binary.LittleEndian.Uint64(e[24:]),
		}
		cols := binary.LittleEndian.Uint64(e[32:])
		if ref.Cols = flowrec.Columns(cols); uint64(ref.Cols) != cols {
			return fmt.Errorf("flowstore: %s: span %d: column set %#x has bits above %d", path, k, cols, flowrec.NumColumns)
		}
		if err := ref.check(); err != nil {
			return fmt.Errorf("flowstore: %s: span %d: %w", path, k, err)
		}
		if ref.Off < prevEnd || ref.Off > int64(indexOff)-ref.Size {
			return fmt.Errorf("flowstore: %s: span %d (off %d, size %d) out of bounds or misordered",
				path, k, ref.Off, ref.Size)
		}
		prevEnd = ref.Off + ref.Size
		refs[k] = ref
	}
	sf.index, sf.end = refs, int64(indexOff)
	return nil
}

// check rejects a reference no writer could have produced: an
// implausible row count, an empty column set or one naming a column that
// does not exist, a size that is not the layout of that row count and
// set, or an offset off the page grid.
func (r SpanRef) check() error {
	if r.Rows < 0 || r.Rows > maxRows {
		return fmt.Errorf("implausible row count %d", r.Rows)
	}
	if !r.Cols.Valid() {
		return fmt.Errorf("column set %#x is empty or has bits above %d", uint16(r.Cols), flowrec.NumColumns)
	}
	if _, size := layout(r.Rows, r.Cols); r.Size != int64(size) {
		return fmt.Errorf("size %d is not the layout of %d rows of %s (%d)", r.Size, r.Rows, r.Cols, size)
	}
	if r.Off < headerSize || r.Off%spanAlign != 0 {
		return fmt.Errorf("offset %d is not a span boundary", r.Off)
	}
	return nil
}

// Span maps the referenced span and verifies its CRC; a non-nil Segment
// always serves exactly the rows that were appended. The caller owns the
// Segment and keeps it for later faults of the same span, so the bytes
// are checksummed once. A span reaching beyond the file's current size
// is rejected before it is mapped — truncation is an error, not a
// SIGBUS. Any rejection counts as an open failure and leaves every
// other span of the file servable.
func (sf *SpanFile) Span(ref SpanRef) (*Segment, error) {
	seg, err := sf.span(ref)
	if m := metricsPtr.Load(); m != nil {
		if err != nil {
			m.openFails.Add(1)
		} else {
			m.spanFaults.Add(1)
		}
	}
	return seg, err
}

func (sf *SpanFile) span(ref SpanRef) (*Segment, error) {
	if err := ref.check(); err != nil {
		return nil, fmt.Errorf("flowstore: %s: %w", sf.path, err)
	}
	if ref.Size > 0 { // an empty span maps nothing
		fi, err := sf.f.Stat()
		if err != nil {
			return nil, fmt.Errorf("flowstore: %w", err)
		}
		if ref.Off > fi.Size()-ref.Size {
			return nil, fmt.Errorf("flowstore: %s: span [%d, %d) beyond the file's %d bytes",
				sf.path, ref.Off, ref.Off+ref.Size, fi.Size())
		}
	}
	data, mapped, err := mapSpan(sf.f, ref.Off, int(ref.Size))
	if err != nil {
		return nil, fmt.Errorf("flowstore: %s: %w", sf.path, err)
	}
	if got := crc64.Checksum(data, crcTable); got != ref.CRC {
		_ = unmapSpan(data, mapped) // the checksum error is the one to report
		return nil, fmt.Errorf("flowstore: %s: span at %d: checksum mismatch", sf.path, ref.Off)
	}
	offs, _ := layout(ref.Rows, ref.Cols)
	return &Segment{data: data, mapped: mapped, rows: ref.Rows, cols: ref.Cols, offs: offs}, nil
}

// readSpan is the heap fallback behind mapSpan: one exact allocation
// holding the one span.
func readSpan(f *os.File, off int64, size int) ([]byte, bool, error) {
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, false, err
	}
	return buf, false, nil
}

// Close closes the file. Segments already returned by Span stay valid:
// a mapping outlives its descriptor.
func (sf *SpanFile) Close() error {
	return sf.f.Close()
}
