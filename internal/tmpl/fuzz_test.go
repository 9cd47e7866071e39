package tmpl_test

import (
	"testing"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// corpus is the framing's seed corpus of the decoder fuzz targets:
// encoded synthetic messages, their truncations, a message of one batch
// kind's column set, and the hostile
// short-field, zero-length-field and overlapping-field templates.
func (fr framing) corpus(tb testing.TB) [][]byte {
	cfg := synth.DefaultConfig(synth.ISPCE)
	cfg.FlowScale = 0.05
	g, err := synth.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	b := g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
	hour := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	enc := fr.encoder(0)
	var out [][]byte
	for lo := 0; lo < b.Len() && lo < 300; lo += 100 {
		msg, err := enc(nil, b, lo, min(lo+100, b.Len()), hour)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, msg, msg[:len(msg)/2], msg[:fr.headerLen])
	}
	// A message of the flows/ kind's column set, under its own template ID.
	projected, err := enc(nil, b.Project(core.FlowKey{Kind: core.KindFlows}.Columns()), 0, min(100, b.Len()), hour)
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, projected,
		shortFields(fr),
		zeroLengthField(fr),
		// The source address twice, 4 bytes then 2: the second copy lands
		// over the first's leading bytes.
		fr.message(302, [][2]uint16{{8, 4}, {8, 2}}, []byte{10, 1, 2, 3, 172, 16}))
}

// records counts the rows an accepted message decodes to — the sum over
// its data sets of the whole records each holds — walking the message
// apart from the decoder.
func (fr framing) records(msg []byte) int {
	recLen := map[int]int{}
	rows := 0
	for off := fr.headerLen; off+4 <= len(msg); {
		id, end := u16(msg, off), off+u16(msg, off+2)
		body := msg[off+4 : end]
		switch {
		case id == int(fr.templateSet):
			for p := 0; p+4 <= len(body); {
				tplID, count := u16(body, p), u16(body, p+2)
				p += 4
				recLen[tplID] = 0
				for i := 0; i < count; i++ {
					recLen[tplID] += u16(body, p+4*i+2)
				}
				p += 4 * count
			}
		case id >= 256:
			rows += len(body) / recLen[id]
		}
		off = end
	}
	return rows
}

// FuzzDecodeBatch is the fuzz target of the template decoder, seeded with
// both framings' corpora. The input's version word picks the framing that
// may accept it; the other one — or both, for any other version — must
// reject it. An accepted message appends exactly the whole records of its
// data sets, which bounds the rows one message can add by its length.
func FuzzDecodeBatch(f *testing.F) {
	for _, fr := range framings {
		for _, msg := range fr.corpus(f) {
			f.Add(msg)
		}
	}
	f.Fuzz(func(t *testing.T, msg []byte) {
		for _, fr := range framings {
			dst := flowrec.NewBatch(1)
			dst.Append(flowrec.Record{Bytes: 1, Packets: 1})
			before := dst.Len()
			n, err := fr.decoder().DecodeBatch(dst, msg)
			if err != nil && dst.Len() != before {
				t.Fatalf("%s: error left %d rows appended", fr.name, dst.Len()-before)
			}
			if err == nil && dst.Len() != before+n {
				t.Fatalf("%s: DecodeBatch returned %d rows but appended %d", fr.name, n, dst.Len()-before)
			}
			if err == nil && (len(msg) < 2 || u16(msg, 0) != int(fr.version)) {
				t.Fatalf("%s: accepted a message of another version", fr.name)
			}
			if err == nil && (n > len(msg) || n != fr.records(msg)) {
				t.Fatalf("%s: appended %d rows from a %d-byte message holding %d records", fr.name, n, len(msg), fr.records(msg))
			}
			if n := dst.Len(); len(dst.StartNs) != n || len(dst.EndNs) != n || len(dst.SrcIP) != n || len(dst.DstIP) != n ||
				len(dst.SrcPort) != n || len(dst.DstPort) != n || len(dst.Proto) != n || len(dst.Packets) != n ||
				len(dst.SrcAS) != n || len(dst.DstAS) != n || len(dst.InIf) != n || len(dst.OutIf) != n ||
				len(dst.Dir) != n || len(dst.TCPFlags) != n {
				t.Fatalf("%s: ragged columns after decode: len=%d", fr.name, n)
			}
		}
	})
}
