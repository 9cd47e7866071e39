package flowrec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Columns is a set of Batch columns, one bit per column in field order.
// A batch stores the columns of its set and leaves the others nil (see
// NewProjected): a reader declares what it reads as a Columns constant,
// and whoever builds batches for that reader allocates, fills and sends
// nothing else.
type Columns uint16

// One bit per Batch column, in field order.
const (
	ColStartNs Columns = 1 << iota
	ColEndNs
	ColSrcIP
	ColDstIP
	ColSrcPort
	ColDstPort
	ColProto
	ColBytes
	ColPackets
	ColSrcAS
	ColDstAS
	ColInIf
	ColOutIf
	ColDir
	ColTCPFlags

	// NumColumns is the number of Batch columns.
	NumColumns = iota

	// AllColumns is the full-width set: what a zero-value Batch, NewBatch
	// and the wire codecs mean.
	AllColumns Columns = 1<<NumColumns - 1
)

// PortLaneColumns is what ServerPortAt and ServerPortLanes read.
const PortLaneColumns = ColSrcPort | ColDstPort | ColProto

// columnInfo names every column and gives its element size, indexed by
// bit position.
var columnInfo = [NumColumns]struct {
	name  string
	width int
}{
	{"StartNs", 8}, {"EndNs", 8}, {"SrcIP", addrSize}, {"DstIP", addrSize},
	{"SrcPort", 2}, {"DstPort", 2}, {"Proto", 1},
	{"Bytes", 8}, {"Packets", 8}, {"SrcAS", 4}, {"DstAS", 4},
	{"InIf", 2}, {"OutIf", 2}, {"Dir", 1}, {"TCPFlags", 1},
}

// Has reports whether every column of need is in the set.
func (c Columns) Has(need Columns) bool { return c&need == need }

// Valid reports whether the set is non-empty and names only columns that
// exist.
func (c Columns) Valid() bool { return c != 0 && c&^AllColumns == 0 }

// RowBytes is what one row occupies across the set's columns: 59 for
// AllColumns (the RowBytes constant).
func (c Columns) RowBytes() int {
	n := 0
	for m := c & AllColumns; m != 0; m &= m - 1 {
		n += columnInfo[bits.TrailingZeros16(uint16(m))].width
	}
	return n
}

// String lists the set's column names, e.g. "Bytes|DstIP".
func (c Columns) String() string {
	if c == 0 {
		return "none"
	}
	var names []string
	for m := c & AllColumns; m != 0; m &= m - 1 {
		names = append(names, columnInfo[bits.TrailingZeros16(uint16(m))].name)
	}
	if extra := c &^ AllColumns; extra != 0 {
		names = append(names, fmt.Sprintf("%#x", uint16(extra)))
	}
	return strings.Join(names, "|")
}
