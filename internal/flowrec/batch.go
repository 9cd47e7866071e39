package flowrec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Batch is a columnar (struct-of-arrays) collection of flow records: every
// Record field lives in its own parallel slice, and row i across all
// columns is one flow. The layout exists for the scan-heavy analyses of
// "The Lockdown Effect" (IMC 2020): aggregators touch only the columns
// they need (bytes, ports, AS numbers), the whole component-hour lives in
// a handful of contiguous allocations instead of one struct per record,
// and the wire codecs encode/decode straight from/into the columns.
//
// Timestamps are stored as Unix nanoseconds so the column is a flat int64
// array; the conversion is lossless for every time the generator or the
// codecs produce. Addresses are stored as Addr, so no column holds a
// pointer: batch memory is noscan and the garbage collector never walks
// it. Appending never fails: rows are plain value copies.
//
// A batch stores a set of its columns (Columns). The zero value and
// NewBatch store all fifteen, which is what the wire codecs and the
// Record conversions need; NewProjected stores a chosen subset and leaves
// the other columns nil, so a batch built for readers that declare what
// they read costs memory for nothing else. Every present column has the
// batch's length; the set is fixed for the batch's life.
//
// A Batch is not safe for concurrent mutation. Shared read-only use is
// safe.
type Batch struct {
	StartNs  []int64
	EndNs    []int64
	SrcIP    []Addr
	DstIP    []Addr
	SrcPort  []uint16
	DstPort  []uint16
	Proto    []Proto
	Bytes    []uint64
	Packets  []uint64
	SrcAS    []uint32
	DstAS    []uint32
	InIf     []uint16
	OutIf    []uint16
	Dir      []Direction
	TCPFlags []uint8

	// absent is the set of columns the batch does not store: the
	// complement of Columns, so that the zero value is full-width.
	absent Columns

	// state tracks the batch's pool lifecycle (see Release). Accessed
	// atomically so a racing double-Release panics deterministically
	// instead of corrupting the pool.
	state uint32
}

// Pool lifecycle states of a Batch.
const (
	// batchLive: owned by a caller; Release is legal.
	batchLive uint32 = iota
	// batchPooled: sitting in the pool; using or re-Releasing it is a bug.
	batchPooled
	// batchView: a read-only view over the columns of the batch a Slice
	// cuts; it must never enter the pool.
	batchView
)

// NewBatch returns an empty full-width batch with capacity for n rows in
// every column (one bulk allocation per column, no reallocation until row
// n+1).
func NewBatch(n int) *Batch {
	b := &Batch{}
	b.Grow(n)
	return b
}

// NewProjected returns an empty batch that stores only the columns of
// cols, with capacity for n rows in each. An empty set or one naming a
// column that does not exist is a programming error and panics.
func NewProjected(n int, cols Columns) *Batch {
	if !cols.Valid() {
		panic(fmt.Sprintf("flowrec: NewProjected with column set %s", cols))
	}
	b := &Batch{absent: AllColumns &^ cols}
	b.Grow(n)
	return b
}

// Columns returns the set of columns the batch stores.
func (b *Batch) Columns() Columns { return AllColumns &^ b.absent }

// Require returns an error naming the columns of need that the batch does
// not store, nil when it stores them all. The core dataset calls it on
// every batch a foreign flow source delivers, and the Record conversions
// through mustStore. The wire codecs do not: encoders leave a column the
// batch lacks out of the template, and decoders fill exactly the columns
// the batch stores.
func (b *Batch) Require(need Columns) error {
	if missing := need &^ b.Columns(); missing != 0 {
		return fmt.Errorf("flowrec: batch does not store column %s (its set is %s)", missing, b.Columns())
	}
	return nil
}

// mustStore panics when the batch lacks a column of need: the Record
// conversions are full-width by definition, and reaching one with a
// projected batch is a bug in the caller, reported by column name instead
// of as an index out of range.
func (b *Batch) mustStore(need Columns, op string) {
	if err := b.Require(need); err != nil {
		panic(fmt.Sprintf("%v; %s needs it", err, op))
	}
}

// Len returns the number of rows.
func (b *Batch) Len() int {
	if b.absent&ColBytes == 0 {
		return len(b.Bytes)
	}
	return b.lenAny()
}

// lenAny is Len for a set without the byte column: absent columns are
// nil, present ones all have the batch's length, so it is the longest.
func (b *Batch) lenAny() int {
	return max(len(b.StartNs), len(b.EndNs), len(b.SrcIP), len(b.DstIP),
		len(b.SrcPort), len(b.DstPort), len(b.Proto), len(b.Packets),
		len(b.SrcAS), len(b.DstAS), len(b.InIf), len(b.OutIf),
		len(b.Dir), len(b.TCPFlags))
}

// growCol is slices.Grow for a column the set c stores, a no-op otherwise.
func growCol[T any](s []T, c, col Columns, n int) []T {
	if c&col == 0 {
		return s
	}
	return slices.Grow(s, n)
}

// Grow ensures capacity for at least n more rows without reallocation, in
// the columns the batch stores.
func (b *Batch) Grow(n int) {
	if n <= 0 {
		return
	}
	c := b.Columns()
	b.StartNs = growCol(b.StartNs, c, ColStartNs, n)
	b.EndNs = growCol(b.EndNs, c, ColEndNs, n)
	b.SrcIP = growCol(b.SrcIP, c, ColSrcIP, n)
	b.DstIP = growCol(b.DstIP, c, ColDstIP, n)
	b.SrcPort = growCol(b.SrcPort, c, ColSrcPort, n)
	b.DstPort = growCol(b.DstPort, c, ColDstPort, n)
	b.Proto = growCol(b.Proto, c, ColProto, n)
	b.Bytes = growCol(b.Bytes, c, ColBytes, n)
	b.Packets = growCol(b.Packets, c, ColPackets, n)
	b.SrcAS = growCol(b.SrcAS, c, ColSrcAS, n)
	b.DstAS = growCol(b.DstAS, c, ColDstAS, n)
	b.InIf = growCol(b.InIf, c, ColInIf, n)
	b.OutIf = growCol(b.OutIf, c, ColOutIf, n)
	b.Dir = growCol(b.Dir, c, ColDir, n)
	b.TCPFlags = growCol(b.TCPFlags, c, ColTCPFlags, n)
}

// Reset truncates the batch to zero rows, keeping the column capacity for
// reuse (the basis of the pool below and of steady-state zero-allocation
// decode loops).
func (b *Batch) Reset() {
	b.StartNs = b.StartNs[:0]
	b.EndNs = b.EndNs[:0]
	b.SrcIP = b.SrcIP[:0]
	b.DstIP = b.DstIP[:0]
	b.SrcPort = b.SrcPort[:0]
	b.DstPort = b.DstPort[:0]
	b.Proto = b.Proto[:0]
	b.Bytes = b.Bytes[:0]
	b.Packets = b.Packets[:0]
	b.SrcAS = b.SrcAS[:0]
	b.DstAS = b.DstAS[:0]
	b.InIf = b.InIf[:0]
	b.OutIf = b.OutIf[:0]
	b.Dir = b.Dir[:0]
	b.TCPFlags = b.TCPFlags[:0]
}

// truncCol shortens a column to n rows; an absent (nil) column stays nil.
func truncCol[T any](s []T, n int) []T {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Truncate shortens the batch to n rows, keeping capacity. Decoders use
// it to roll back partially appended packets on error.
func (b *Batch) Truncate(n int) {
	if n < 0 || n >= b.Len() {
		return
	}
	b.StartNs = truncCol(b.StartNs, n)
	b.EndNs = truncCol(b.EndNs, n)
	b.SrcIP = truncCol(b.SrcIP, n)
	b.DstIP = truncCol(b.DstIP, n)
	b.SrcPort = truncCol(b.SrcPort, n)
	b.DstPort = truncCol(b.DstPort, n)
	b.Proto = truncCol(b.Proto, n)
	b.Bytes = truncCol(b.Bytes, n)
	b.Packets = truncCol(b.Packets, n)
	b.SrcAS = truncCol(b.SrcAS, n)
	b.DstAS = truncCol(b.DstAS, n)
	b.InIf = truncCol(b.InIf, n)
	b.OutIf = truncCol(b.OutIf, n)
	b.Dir = truncCol(b.Dir, n)
	b.TCPFlags = truncCol(b.TCPFlags, n)
}

// timeNs converts a timestamp to its column representation. The zero
// time.Time maps to 0 (UnixNano is undefined for it); timeAt maps 0
// back, so unset timestamps round-trip as unset. The one ambiguity is a
// flow stamped exactly at the Unix epoch, which also round-trips as the
// zero time — nothing the generator or the codecs produce.
func timeNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// timeAt is the inverse of timeNs.
func timeAt(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Append adds one record as a new row. A record whose address is not
// IPv4 cannot be stored (see AddrFrom) and panics: no generator or
// decoder produces one, and Record.Validate reports it beforehand. A
// record is full-width, so appending one to a projected batch panics too.
func (b *Batch) Append(r Record) {
	b.mustStore(AllColumns, "Append")
	src, dst := mustAddr(r.SrcIP), mustAddr(r.DstIP)
	b.StartNs = append(b.StartNs, timeNs(r.Start))
	b.EndNs = append(b.EndNs, timeNs(r.End))
	b.SrcIP = append(b.SrcIP, src)
	b.DstIP = append(b.DstIP, dst)
	b.SrcPort = append(b.SrcPort, r.SrcPort)
	b.DstPort = append(b.DstPort, r.DstPort)
	b.Proto = append(b.Proto, r.Proto)
	b.Bytes = append(b.Bytes, r.Bytes)
	b.Packets = append(b.Packets, r.Packets)
	b.SrcAS = append(b.SrcAS, r.SrcAS)
	b.DstAS = append(b.DstAS, r.DstAS)
	b.InIf = append(b.InIf, r.InIf)
	b.OutIf = append(b.OutIf, r.OutIf)
	b.Dir = append(b.Dir, r.Dir)
	b.TCPFlags = append(b.TCPFlags, r.TCPFlags)
}

// appendCol appends src to a column the set c stores; an absent one stays
// nil.
func appendCol[T any](dst, src []T, c, col Columns) []T {
	if c&col == 0 {
		return dst
	}
	return append(dst, src...)
}

// AppendBatch appends all rows of o, in the columns b stores. o may store
// more than b does; it panics when o lacks one of b's columns.
func (b *Batch) AppendBatch(o *Batch) {
	c := b.Columns()
	o.mustStore(c, "AppendBatch")
	b.StartNs = appendCol(b.StartNs, o.StartNs, c, ColStartNs)
	b.EndNs = appendCol(b.EndNs, o.EndNs, c, ColEndNs)
	b.SrcIP = appendCol(b.SrcIP, o.SrcIP, c, ColSrcIP)
	b.DstIP = appendCol(b.DstIP, o.DstIP, c, ColDstIP)
	b.SrcPort = appendCol(b.SrcPort, o.SrcPort, c, ColSrcPort)
	b.DstPort = appendCol(b.DstPort, o.DstPort, c, ColDstPort)
	b.Proto = appendCol(b.Proto, o.Proto, c, ColProto)
	b.Bytes = appendCol(b.Bytes, o.Bytes, c, ColBytes)
	b.Packets = appendCol(b.Packets, o.Packets, c, ColPackets)
	b.SrcAS = appendCol(b.SrcAS, o.SrcAS, c, ColSrcAS)
	b.DstAS = appendCol(b.DstAS, o.DstAS, c, ColDstAS)
	b.InIf = appendCol(b.InIf, o.InIf, c, ColInIf)
	b.OutIf = appendCol(b.OutIf, o.OutIf, c, ColOutIf)
	b.Dir = appendCol(b.Dir, o.Dir, c, ColDir)
	b.TCPFlags = appendCol(b.TCPFlags, o.TCPFlags, c, ColTCPFlags)
}

// Slice returns rows [lo, hi) of b as a read-only view that shares b's
// columns and stores the same set. The view is marked as one (Release
// panics on it), and its columns' capacity ends at hi, so an append to one
// reallocates instead of writing into b.
func (b *Batch) Slice(lo, hi int) *Batch {
	v := &Batch{
		StartNs: sliceCol(b.StartNs, lo, hi), EndNs: sliceCol(b.EndNs, lo, hi),
		SrcIP: sliceCol(b.SrcIP, lo, hi), DstIP: sliceCol(b.DstIP, lo, hi),
		SrcPort: sliceCol(b.SrcPort, lo, hi), DstPort: sliceCol(b.DstPort, lo, hi),
		Proto: sliceCol(b.Proto, lo, hi),
		Bytes: sliceCol(b.Bytes, lo, hi), Packets: sliceCol(b.Packets, lo, hi),
		SrcAS: sliceCol(b.SrcAS, lo, hi), DstAS: sliceCol(b.DstAS, lo, hi),
		InIf: sliceCol(b.InIf, lo, hi), OutIf: sliceCol(b.OutIf, lo, hi),
		Dir: sliceCol(b.Dir, lo, hi), TCPFlags: sliceCol(b.TCPFlags, lo, hi),
		absent: b.absent,
	}
	v.markView()
	return v
}

// sliceCol is rows [lo, hi) of a column, capped at hi; an absent (nil)
// column stays nil.
func sliceCol[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi:hi]
}

// Project returns a heap-owned copy of the batch that stores only cols,
// all of which b must store.
func (b *Batch) Project(cols Columns) *Batch {
	out := NewProjected(b.Len(), cols)
	out.AppendBatch(b)
	return out
}

// Equal reports whether the two batches store the same columns and the
// same rows in them.
func (b *Batch) Equal(o *Batch) bool {
	return b.Columns() == o.Columns() &&
		slices.Equal(b.StartNs, o.StartNs) && slices.Equal(b.EndNs, o.EndNs) &&
		slices.Equal(b.SrcIP, o.SrcIP) && slices.Equal(b.DstIP, o.DstIP) &&
		slices.Equal(b.SrcPort, o.SrcPort) && slices.Equal(b.DstPort, o.DstPort) &&
		slices.Equal(b.Proto, o.Proto) &&
		slices.Equal(b.Bytes, o.Bytes) && slices.Equal(b.Packets, o.Packets) &&
		slices.Equal(b.SrcAS, o.SrcAS) && slices.Equal(b.DstAS, o.DstAS) &&
		slices.Equal(b.InIf, o.InIf) && slices.Equal(b.OutIf, o.OutIf) &&
		slices.Equal(b.Dir, o.Dir) && slices.Equal(b.TCPFlags, o.TCPFlags)
}

// StartAt returns row i's flow start time.
func (b *Batch) StartAt(i int) time.Time { return timeAt(b.StartNs[i]) }

// EndAt returns row i's flow end time.
func (b *Batch) EndAt(i int) time.Time { return timeAt(b.EndNs[i]) }

// Record materialises row i as a Record. A record is full-width: on a
// projected batch this panics, naming the missing column.
func (b *Batch) Record(i int) Record {
	b.mustStore(AllColumns, "Record")
	return Record{
		Start:    b.StartAt(i),
		End:      b.EndAt(i),
		SrcIP:    b.SrcIP[i].Netip(),
		DstIP:    b.DstIP[i].Netip(),
		SrcPort:  b.SrcPort[i],
		DstPort:  b.DstPort[i],
		Proto:    b.Proto[i],
		Bytes:    b.Bytes[i],
		Packets:  b.Packets[i],
		SrcAS:    b.SrcAS[i],
		DstAS:    b.DstAS[i],
		InIf:     b.InIf[i],
		OutIf:    b.OutIf[i],
		Dir:      b.Dir[i],
		TCPFlags: b.TCPFlags[i],
	}
}

// Records materialises the whole batch as a record slice (one exact
// allocation). It returns nil for an empty batch, matching the historic
// behaviour of the record-slice APIs it adapts.
func (b *Batch) Records() []Record {
	b.mustStore(AllColumns, "Records")
	if b.Len() == 0 {
		return nil
	}
	out := make([]Record, b.Len())
	for i := range out {
		out[i] = b.Record(i)
	}
	return out
}

// FromRecords builds a batch from a record slice (the inverse of Records).
func FromRecords(recs []Record) *Batch {
	b := NewBatch(len(recs))
	for _, r := range recs {
		b.Append(r)
	}
	return b
}

// portlessMask zeroes the computed server port of protocols that have no
// ports (GRE, ESP, ICMP): 0x0000 for those protocol numbers, 0xFFFF for
// every other. A table load replaces three compares in the per-row path.
var portlessMask = func() (m [256]uint16) {
	for i := range m {
		m[i] = 0xFFFF
	}
	m[ProtoGRE], m[ProtoESP], m[ProtoICMP] = 0, 0, 0
	return
}()

// ServerPortAt returns row i's service-side port/protocol pair, using the
// same lower-port heuristic as Record.ServerPort but reading only the
// three columns involved. The selection is pure arithmetic instead of the
// branch ladder of Record.ServerPort — the scan loops of the port and
// application-class analyses call this per row, and real port pairs are
// exactly the data-dependent pattern branch predictors cannot learn:
// decrementing wraps an absent (0) port to 65535 so min picks the present
// side, both present picks the lower, both absent wraps back to 0, and
// the protocol mask zeroes port-less protocols. The function stays under
// the inlining budget, so the scan loops pay no call either.
func (b *Batch) ServerPortAt(i int) PortProto {
	p := b.Proto[i]
	s, d := b.SrcPort[i], b.DstPort[i]
	port := (min(s-1, d-1) + 1) & portlessMask[p]
	return PortProto{p, port}
}

// batchPool recycles batches (and, transitively, their column arrays): the
// collector's decode loop gets a batch once, resets it per packet and never
// allocates again, the generator's stream borrows its one-hour scratch
// for each span it folds, and the wire-replay harness returns the
// bucket-sized batches it generates only to export or to compare (see
// core.FlowSource for who releases what).
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetProjected is NewProjected drawing from the pool: an empty batch that
// stores only the columns of cols, with capacity for at least n rows in
// each, to be returned with Release when done. A caller that keeps the
// batch instead simply leaves the pool one short. A pooled batch of another
// column set keeps the arrays of the columns both sets store; the columns
// outside cols are set to nil, as in any projected batch, and the ones it
// lacks are grown like a fresh batch's.
func GetProjected(n int, cols Columns) *Batch {
	if !cols.Valid() {
		panic(fmt.Sprintf("flowrec: GetProjected with column set %s", cols))
	}
	b := batchPool.Get().(*Batch)
	if absent := AllColumns &^ cols; b.absent != absent {
		b.keepOnly(cols)
		b.absent = absent
	}
	atomic.StoreUint32(&b.state, batchLive)
	b.Reset()
	b.Grow(n)
	return b
}

// dropCol is the column s when the set c stores col, nil otherwise.
func dropCol[T any](s []T, c, col Columns) []T {
	if c&col == 0 {
		return nil
	}
	return s
}

// keepOnly sets every column outside c to nil.
func (b *Batch) keepOnly(c Columns) {
	b.StartNs = dropCol(b.StartNs, c, ColStartNs)
	b.EndNs = dropCol(b.EndNs, c, ColEndNs)
	b.SrcIP = dropCol(b.SrcIP, c, ColSrcIP)
	b.DstIP = dropCol(b.DstIP, c, ColDstIP)
	b.SrcPort = dropCol(b.SrcPort, c, ColSrcPort)
	b.DstPort = dropCol(b.DstPort, c, ColDstPort)
	b.Proto = dropCol(b.Proto, c, ColProto)
	b.Bytes = dropCol(b.Bytes, c, ColBytes)
	b.Packets = dropCol(b.Packets, c, ColPackets)
	b.SrcAS = dropCol(b.SrcAS, c, ColSrcAS)
	b.DstAS = dropCol(b.DstAS, c, ColDstAS)
	b.InIf = dropCol(b.InIf, c, ColInIf)
	b.OutIf = dropCol(b.OutIf, c, ColOutIf)
	b.Dir = dropCol(b.Dir, c, ColDir)
	b.TCPFlags = dropCol(b.TCPFlags, c, ColTCPFlags)
}

// Release returns the batch to the pool. The caller must not use b
// afterwards. Releasing the same batch twice panics (the second release
// would let two future GetProjected callers alias the same column arrays and
// silently corrupt each other's rows), as does releasing a view batch
// (its columns alias another batch, so pooling it would hand that memory
// to the decode loops).
func (b *Batch) Release() {
	if b == nil {
		return
	}
	switch {
	case atomic.CompareAndSwapUint32(&b.state, batchLive, batchPooled):
		batchPool.Put(b)
	case atomic.LoadUint32(&b.state) == batchView:
		panic("flowrec: Release of a view batch; a view's columns belong to another owner and must never be pooled")
	default:
		panic("flowrec: double Release of a pooled batch; the previous Release already returned it")
	}
}

// markView marks b as a read-only view over another batch's columns
// (Slice). A view batch panics on Release instead of entering the pool,
// and its columns must not be mutated or retained past their owner's
// lifetime.
func (b *Batch) markView() {
	atomic.StoreUint32(&b.state, batchView)
}

// addrSize is the size of an Addr.
const addrSize = int(unsafe.Sizeof(Addr{}))

// RowBytes is what one row occupies across all fifteen columns (59): the
// sum of the column element sizes. A projected batch's rows occupy
// Columns.RowBytes.
const RowBytes = 2*8 + 2*addrSize + 2*2 + 1 + 2*8 + 2*4 + 2*2 + 1 + 1
