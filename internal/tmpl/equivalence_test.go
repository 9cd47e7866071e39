package tmpl_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
)

// The column-major decoder against the row loop it replaced
// (reference_test.go), with ==: the same rows, the same count and the same
// error, for template shapes the encoders never send as well as the one
// they do.

// standardFields is the template the encoders announce, written out from
// the field registries.
func (fr framing) standardFields() [][2]uint16 {
	return [][2]uint16{
		{8, 4}, {12, 4}, {1, 8}, {2, 8}, {fr.startID, 4}, {fr.endID, 4}, {7, 2}, {11, 2},
		{4, 1}, {6, 1}, {61, 1}, {10, fr.ifLen}, {14, fr.ifLen}, {16, 4}, {17, 4},
	}
}

// refCase is one message shape of the equivalence table: a template of
// fields, and a data set of rows records of noise plus tail bytes,
// followed by extra more such sets.
type refCase struct {
	name              string
	fields            func(fr framing) [][2]uint16
	rows, tail, extra int
}

func refCases() []refCase {
	fixed := func(fields [][2]uint16) func(framing) [][2]uint16 {
		return func(framing) [][2]uint16 { return fields }
	}
	cases := []refCase{
		{name: "standard", fields: framing.standardFields, rows: 5},
		{name: "standard reversed", fields: func(fr framing) [][2]uint16 {
			f := fr.standardFields()
			slices.Reverse(f)
			return f
		}, rows: 5},
		{name: "half the columns", fields: func(fr framing) [][2]uint16 {
			var f [][2]uint16
			for i, fl := range fr.standardFields() {
				if i%2 == 0 {
					f = append(f, fl)
				}
			}
			return f
		}, rows: 5},
		{name: "every field twice", fields: func(fr framing) [][2]uint16 {
			f := fr.standardFields()
			return append(f, f...)
		}, rows: 5},
		{name: "addresses of 2 and 6 bytes", fields: fixed([][2]uint16{{8, 2}, {12, 6}, {1, 4}}), rows: 5},
		{name: "address overlap", fields: fixed([][2]uint16{{8, 4}, {8, 2}, {12, 2}, {12, 4}}), rows: 5},
		{name: "protocol flags direction of 2 bytes", fields: fixed([][2]uint16{{4, 2}, {6, 2}, {61, 2}}), rows: 5},
		{name: "zero-length fields", fields: fixed([][2]uint16{{4, 0}, {7, 2}, {8, 0}, {61, 1}}), rows: 5},
		{name: "unknown and foreign fields", fields: fixed([][2]uint16{{999, 3}, {22, 4}, {150, 4}, {7, 2}}), rows: 5},
		{name: "trailing partial record", fields: framing.standardFields, rows: 3, tail: 7},
		{name: "no whole record", fields: framing.standardFields, rows: 0, tail: 50},
		{name: "two data sets", fields: framing.standardFields, rows: 4, tail: 1, extra: 1},
		{name: "one-byte records", fields: fixed([][2]uint16{{4, 1}}), rows: 1000},
		{name: "zero record length", fields: fixed([][2]uint16{{4, 0}}), tail: 2},
	}
	for _, w := range []uint16{1, 3, 5, 8, 9, 16} {
		cases = append(cases, refCase{name: fmt.Sprintf("integers of %d bytes", w), fields: func(fr framing) [][2]uint16 {
			return [][2]uint16{{1, w}, {2, w}, {fr.startID, w}, {fr.endID, w}, {7, w}, {11, w}, {10, w}, {14, w}, {16, w}, {17, w}}
		}, rows: 5})
	}
	return cases
}

// refMessage builds the case's message for fr, its data from rng.
func (fr framing) refMessage(c refCase, rng *rand.Rand) []byte {
	fields := c.fields(fr)
	recLen := 0
	for _, f := range fields {
		recLen += int(f[1])
	}
	noise := func() []byte {
		b := make([]byte, c.rows*recLen+c.tail)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	msg := fr.message(300, fields, noise())
	for range c.extra {
		msg = dataSet(msg, 300, noise())
	}
	return fr.setLength(msg)
}

// matchReference decodes msg with DecodeBatch and with the reference, on
// fresh decoders and into batches that already hold held rows, and fails
// on any difference. DecodeBatch decodes into a batch of the column set
// cols, the reference into a full-width one that is then projected to
// cols: a decode into fewer columns is the full decode with the others
// left out. The batches are truncated from longer ones, as a reused
// collector batch is reset, so stale rows lie past their length.
func matchReference(t *testing.T, fr framing, msg []byte, held int, cols flowrec.Columns) {
	t.Helper()
	_, got := sample(held + 64)
	_, want := sample(held + 64)
	got = got.Project(cols)
	got.Truncate(held)
	want.Truncate(held)
	n, err := fr.decoder().DecodeBatch(got, msg)
	wn, werr := fr.decoder().RefDecodeBatch(want, msg)
	if n != wn || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s: DecodeBatch = %d rows, err %v; the reference %d rows, err %v", fr.name, n, err, wn, werr)
	}
	if want = want.Project(cols); got.Equal(want) {
		return
	}
	if cols == flowrec.AllColumns {
		for i := range min(got.Len(), want.Len()) {
			if got.Record(i) != want.Record(i) {
				t.Fatalf("%s: row %d = %+v, the reference %+v", fr.name, i, got.Record(i), want.Record(i))
			}
		}
	}
	t.Fatalf("%s: %d rows of %s, the reference %d", fr.name, got.Len(), cols, want.Len())
}

func TestDecodeMatchesReference(t *testing.T) {
	forEachFraming(t, func(t *testing.T, fr framing) {
		rng := rand.New(rand.NewSource(1))
		for _, c := range refCases() {
			msg := fr.refMessage(c, rng)
			for _, held := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s/held-%d", c.name, held), func(t *testing.T) {
					matchReference(t, fr, msg, held, flowrec.AllColumns)
				})
			}
		}
	})
}

// FuzzDecodeMatchesReference: the fuzzer writes the body of a template
// set — template IDs, field counts and (field, length) pairs, hostile ones
// included — and the bytes after it, data sets or not, and picks the
// column set decoded into (its low fifteen bits; none means all); the
// message they make decodes the same under DecodeBatch and the reference,
// in both framings. Seeded with the equivalence table and
// FuzzDecodeBatch's corpus, each split after its template set, under the
// full set and under each batch kind's.
func FuzzDecodeMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	sets := []flowrec.Columns{flowrec.AllColumns}
	for _, kind := range []core.FlowKind{core.KindFlows, core.KindVPNFlows, core.KindComponentFlows} {
		sets = append(sets, core.FlowKey{Kind: kind}.Columns())
	}
	for _, fr := range framings {
		seeds := fr.corpus(f)
		for _, c := range refCases() {
			seeds = append(seeds, fr.refMessage(c, rng))
		}
		for i, msg := range seeds {
			tpl, rest := fr.splitTemplate(msg)
			f.Add(tpl, rest, uint16(sets[i%len(sets)]))
		}
	}
	f.Fuzz(func(t *testing.T, tpl, rest []byte, set uint16) {
		cols := flowrec.Columns(set) & flowrec.AllColumns
		if cols == 0 {
			cols = flowrec.AllColumns
		}
		for _, fr := range framings {
			matchReference(t, fr, fr.joinTemplate(tpl, rest), 1, cols)
		}
	})
}
