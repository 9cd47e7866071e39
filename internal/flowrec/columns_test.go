package flowrec_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/tmpl"
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
// Project and Equal are correct for any non-empty set, and a
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
	if got := flowrec.GetProjected(4, flowrec.AllColumns); got.Columns() != flowrec.AllColumns {
		t.Errorf("GetProjected(4, AllColumns) returned a batch storing %s; pooled batches are full-width", got.Columns())
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

// TestGetProjectedKeepsSharedColumns: a draw of one column set after a
// batch of another was released reuses the arrays of the columns both
// store. Each run draws the full width after the set's batch came back,
// which grows the set's complement again, and then the set after the
// full-width batch came back, which must grow nothing: a run allocates
// exactly one array per column outside the set. The draw's absent
// columns are nil.
func TestGetProjectedKeepsSharedColumns(t *testing.T) {
	const n = 256
	for _, cols := range projectedSets[1:] {
		t.Run(cols.String(), func(t *testing.T) {
			flowrec.GetProjected(n, flowrec.AllColumns).Release()
			allocs := testing.AllocsPerRun(50, func() {
				flowrec.GetProjected(n, flowrec.AllColumns).Release()
				flowrec.GetProjected(n, cols).Release()
			})
			if want := bits.OnesCount16(uint16(flowrec.AllColumns &^ cols)); allocs != float64(want) && !raceEnabled {
				t.Errorf("%.1f allocs a run, want %d: one per column outside the set, none for the %d shared ones", allocs, want, bits.OnesCount16(uint16(cols)))
			}
			flowrec.GetProjected(n, flowrec.AllColumns).Release()
			b := flowrec.GetProjected(n, cols)
			defer b.Release()
			if nilColumns(b) != flowrec.AllColumns&^cols || cap(b.Bytes) < n && cols.Has(flowrec.ColBytes) {
				t.Errorf("draw after a full-width release stores %s, nil columns %s", b.Columns(), nilColumns(b))
			}
		})
	}
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
// store says which one — the Record conversions panic naming it instead of
// indexing a nil column. The wire encoders are not such code: a column the
// batch lacks travels as zero, so every encoder's round trip of a batch
// without one column decodes exactly like the full-width batch with that
// column cleared.
func TestProjectedMisuseIsLoud(t *testing.T) {
	full := flowrec.FromRecords(genRecords(20))
	export := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)

	// roundTrip encodes b as one message of f and decodes it with a fresh
	// decoder into a full-width batch.
	roundTrip := func(f *tmpl.Framing, b *flowrec.Batch) (*flowrec.Batch, error) {
		var seq uint32
		msg, err := f.EncodeBatch(nil, b, 0, b.Len(), export, 7, &seq)
		if err != nil {
			return nil, err
		}
		out := flowrec.NewBatch(b.Len())
		_, err = tmpl.NewDecoder(f).DecodeBatch(out, msg)
		return out, err
	}
	codecs := []struct {
		name string
		f    *tmpl.Framing
	}{{"netflow-v9", &tmpl.V9}, {"ipfix", &tmpl.IPFIX}}
	for _, codec := range codecs {
		for c := 0; c < flowrec.NumColumns; c++ {
			col := flowrec.Columns(1) << c
			t.Run(fmt.Sprintf("%s/without-%s", codec.name, col), func(t *testing.T) {
				got, err := roundTrip(codec.f, full.Project(flowrec.AllColumns&^col))
				if err != nil {
					t.Fatalf("a batch without %s does not encode: %v", col, err)
				}
				cleared := full.Project(flowrec.AllColumns)
				reflect.ValueOf(cleared).Elem().Field(c).Clear()
				want, err := roundTrip(codec.f, cleared)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("the batch without %s decodes otherwise than the full-width one with %s zeroed", col, col)
				}
			})
		}
	}

	narrow := full.Project(flowrec.AllColumns &^ flowrec.ColPackets)
	for name, misuse := range map[string]func(){
		"Record":  func() { narrow.Record(0) },
		"Records": func() { narrow.Records() },
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
