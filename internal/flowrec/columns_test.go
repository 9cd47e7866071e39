package flowrec_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/netflow"
)

// TestColumnsMatchBatchFields: Columns has exactly one bit per Batch
// column, in field order, named after the field and as wide as its
// element — so a set's RowBytes is what its rows occupy, and AllColumns
// is the RowBytes constant.
func TestColumnsMatchBatchFields(t *testing.T) {
	bt := reflect.TypeOf(flowrec.Batch{})
	col := 0
	for i := 0; i < bt.NumField(); i++ {
		f := bt.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		bit := flowrec.Columns(1) << col
		if !flowrec.AllColumns.Has(bit) {
			t.Fatalf("column %d (%s) has no bit in AllColumns", col, f.Name)
		}
		if bit.String() != f.Name {
			t.Errorf("bit %d is named %q, the batch's column %d is %s", col, bit, col, f.Name)
		}
		if got, want := bit.RowBytes(), int(f.Type.Elem().Size()); got != want {
			t.Errorf("%s: RowBytes = %d, its element is %d bytes", f.Name, got, want)
		}
		col++
	}
	if col != flowrec.NumColumns || flowrec.AllColumns != 1<<col-1 {
		t.Errorf("%d batch columns, NumColumns = %d, AllColumns = %#x", col, flowrec.NumColumns, uint16(flowrec.AllColumns))
	}
	if got := flowrec.AllColumns.RowBytes(); got != flowrec.RowBytes {
		t.Errorf("AllColumns.RowBytes() = %d, RowBytes = %d", got, flowrec.RowBytes)
	}
	if flowrec.Columns(0).Valid() || (flowrec.AllColumns + 1).Valid() || !flowrec.ColDir.Valid() {
		t.Error("Valid must reject the empty set and a bit beyond the columns, and accept a single column")
	}
}

// projectedSets are the shapes the batch operations must hold for: the
// zero value's full width, sets with and without the byte column (Len's
// fast path), the first and the last column alone.
var projectedSets = []flowrec.Columns{
	flowrec.AllColumns,
	flowrec.PortLaneColumns | flowrec.ColBytes | flowrec.ColSrcAS | flowrec.ColDstAS | flowrec.ColDir,
	flowrec.ColBytes | flowrec.ColDstIP,
	flowrec.PortLaneColumns,
	flowrec.ColStartNs,
	flowrec.ColTCPFlags,
}

// nilColumns lists the batch's columns that are nil, as a set.
func nilColumns(b *flowrec.Batch) flowrec.Columns {
	var set flowrec.Columns
	v := reflect.ValueOf(b).Elem()
	col := 0
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Slice {
			continue
		}
		if v.Field(i).IsNil() {
			set |= 1 << col
		}
		col++
	}
	return set
}

// TestProjectedBatchOperations: Len, Grow, Reset, Truncate, AppendBatch,
// HeapBytes, Project and Equal are correct for any non-empty set, and a
// projected batch never grows a column outside its set.
func TestProjectedBatchOperations(t *testing.T) {
	full := flowrec.FromRecords(genRecords(40))
	if full.Columns() != flowrec.AllColumns || new(flowrec.Batch).Columns() != flowrec.AllColumns {
		t.Fatal("a zero-value batch and FromRecords must be full-width")
	}
	for _, cols := range projectedSets {
		t.Run(cols.String(), func(t *testing.T) {
			b := flowrec.NewProjected(0, cols)
			if b.Columns() != cols || b.Len() != 0 {
				t.Fatalf("new batch stores %s × %d rows", b.Columns(), b.Len())
			}
			b.Grow(100)
			if got := nilColumns(b); got != flowrec.AllColumns&^cols {
				t.Fatalf("after Grow the nil columns are %s, want exactly the absent %s", got, flowrec.AllColumns&^cols)
			}
			// The allocator rounds each column up to a size class.
			want := int64(100*cols.RowBytes()) + flowrec.NewProjected(0, cols).HeapBytes()
			if got := b.HeapBytes(); got < want || got > want+want/8 {
				t.Errorf("HeapBytes = %d for 100 rows of %d bytes, want %d plus size-class slack", got, cols.RowBytes(), want)
			}
			b.AppendBatch(full)
			b.AppendBatch(full.Project(cols))
			if b.Len() != 2*full.Len() {
				t.Fatalf("Len = %d after appending 2 × %d rows", b.Len(), full.Len())
			}
			b.Truncate(full.Len())
			if b.Len() != full.Len() || !b.Equal(full.Project(cols)) {
				t.Fatalf("Truncate left %d rows, or not the first %d", b.Len(), full.Len())
			}
			if cols != flowrec.AllColumns && b.Equal(full) {
				t.Error("a projected batch must not equal the full-width one")
			}
			b.Truncate(b.Len() + 5) // out of range: no-op
			b.Reset()
			if b.Len() != 0 || nilColumns(b) != flowrec.AllColumns&^cols {
				t.Errorf("Reset left %d rows, nil columns %s", b.Len(), nilColumns(b))
			}
		})
	}
	pooled := full.Project(flowrec.ColBytes)
	pooled.Release()
	if got := flowrec.GetBatch(4); got.Columns() != flowrec.AllColumns {
		t.Errorf("GetBatch returned a batch storing %s; pooled batches are full-width", got.Columns())
	}
}

// TestGetProjectedHonoursTheSet draws from a pool that holds batches of
// other column sets: whatever the pool hands back, the draw stores exactly
// the requested columns, empty, with the requested capacity, and the
// others are nil.
func TestGetProjectedHonoursTheSet(t *testing.T) {
	full := flowrec.FromRecords(genRecords(40))
	sets := []flowrec.Columns{flowrec.AllColumns, flowrec.ColBytes | flowrec.ColDstIP, flowrec.PortLaneColumns}
	for round := 0; round < 4; round++ {
		for _, cols := range sets {
			// Seed the pool with a full-width and a narrower batch.
			full.Project(flowrec.AllColumns).Release()
			full.Project(flowrec.ColBytes).Release()
			b := flowrec.GetProjected(64, cols)
			if b.Columns() != cols || nilColumns(b) != flowrec.AllColumns&^cols {
				t.Fatalf("GetProjected(%s) stores %s, nil columns %s", cols, b.Columns(), nilColumns(b))
			}
			if b.Len() != 0 {
				t.Fatalf("GetProjected(%s) returned %d rows", cols, b.Len())
			}
			b.AppendBatch(full)
			if !b.Equal(full.Project(cols)) {
				t.Fatalf("rows appended to a pooled %s batch differ from the projection", cols)
			}
			b.Release()
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("GetProjected with an empty column set must panic")
		}
	}()
	flowrec.GetProjected(1, 0)
}

// genRecords draws n wire-representable records (see genRecord).
func genRecords(n int) []flowrec.Record {
	rng := rand.New(rand.NewSource(21))
	recs := make([]flowrec.Record, n)
	for i := range recs {
		recs[i] = genRecord(rng)
	}
	return recs
}

// TestProjectedMisuseIsLoud: code that needs a column the batch does not
// store says which one. The wire encoders return an error naming it,
// with dst unmodified and the sequence number not consumed; the Record
// conversions panic naming it instead of indexing a nil column.
func TestProjectedMisuseIsLoud(t *testing.T) {
	full := flowrec.FromRecords(genRecords(20))
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)

	type encode func(dst []byte, b *flowrec.Batch) ([]byte, error)
	encoders := []struct {
		name    string
		carries flowrec.Columns
		fresh   func() encode
	}{
		{"netflow-v5", flowrec.AllColumns &^ flowrec.ColDir, func() encode {
			return func(dst []byte, b *flowrec.Batch) ([]byte, error) {
				return netflow.EncodeV5Batch(dst, b, 0, b.Len(), export, 7)
			}
		}},
		{"netflow-v9", flowrec.AllColumns, func() encode {
			e := &netflow.V9Encoder{SourceID: 7}
			return func(dst []byte, b *flowrec.Batch) ([]byte, error) { return e.EncodeBatch(dst, b, 0, b.Len(), export) }
		}},
		{"ipfix", flowrec.AllColumns, func() encode {
			e := &ipfix.Encoder{DomainID: 7}
			return func(dst []byte, b *flowrec.Batch) ([]byte, error) { return e.EncodeBatch(dst, b, 0, b.Len(), export) }
		}},
	}
	for _, enc := range encoders {
		first, err := enc.fresh()(nil, full)
		if err != nil {
			t.Fatalf("%s: full-width batch: %v", enc.name, err)
		}
		for c := 0; c < flowrec.NumColumns; c++ {
			col := flowrec.Columns(1) << c
			t.Run(fmt.Sprintf("%s/without-%s", enc.name, col), func(t *testing.T) {
				encode := enc.fresh()
				prefix := []byte("kept")
				out, err := encode(prefix, full.Project(flowrec.AllColumns&^col))
				if !enc.carries.Has(col) {
					if err != nil {
						t.Fatalf("the format does not carry %s, yet: %v", col, err)
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), col.String()) {
					t.Fatalf("error = %v, want one naming %s", err, col)
				}
				if !bytes.Equal(out, prefix) {
					t.Errorf("dst was modified on error: %q", out)
				}
				if next, err := encode(nil, full); err != nil || !bytes.Equal(next, first) {
					t.Errorf("the failed call consumed the sequence number (err %v)", err)
				}
			})
		}
	}

	narrow := full.Project(flowrec.AllColumns &^ flowrec.ColPackets)
	for name, misuse := range map[string]func(){
		"Record":  func() { narrow.Record(0) },
		"Records": func() { narrow.Records() },
		"Filter":  func() { narrow.Filter(func(*flowrec.Batch, int) bool { return true }) },
		"Append":  func() { narrow.Append(flowrec.Record{}) },
		"AppendBatch": func() {
			flowrec.NewProjected(0, flowrec.ColPackets|flowrec.ColBytes).AppendBatch(narrow)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Packets") || !strings.Contains(msg, name) {
					t.Errorf("panic = %q, want one naming the Packets column and %s", msg, name)
				}
			}()
			misuse()
		})
	}
}
