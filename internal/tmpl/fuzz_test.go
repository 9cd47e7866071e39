package tmpl_test

import (
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

// FuzzDecodeBatch is the fuzz target of the template decoder, seeded with
// both framings' corpora: encoded synthetic messages, their truncations,
// and the hostile short-field and zero-length-field templates. The
// input's version word picks the framing that may accept it; the other
// one — or both, for any other version — must reject it.
func FuzzDecodeBatch(f *testing.F) {
	cfg := synth.DefaultConfig(synth.ISPCE)
	cfg.FlowScale = 0.05
	g, err := synth.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	b := g.FlowsForHourBatch(time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC))
	hour := time.Date(2020, 3, 25, 21, 0, 0, 0, time.UTC)
	for _, fr := range framings {
		enc := fr.encoder(0)
		for lo := 0; lo < b.Len() && lo < 300; lo += 100 {
			msg, err := enc(nil, b, lo, min(lo+100, b.Len()), hour)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(msg)
			f.Add(msg[:len(msg)/2])
			f.Add(msg[:fr.headerLen])
		}
		f.Add(shortFields(fr))
		f.Add(zeroLengthField(fr))
		// The source address twice, 4 bytes then 2: the second copy lands
		// over the first's leading bytes.
		f.Add(fr.message(302, [][2]uint16{{8, 4}, {8, 2}}, []byte{10, 1, 2, 3, 172, 16}))
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
			if n := dst.Len(); len(dst.StartNs) != n || len(dst.EndNs) != n || len(dst.SrcIP) != n || len(dst.DstIP) != n ||
				len(dst.SrcPort) != n || len(dst.DstPort) != n || len(dst.Proto) != n || len(dst.Packets) != n ||
				len(dst.SrcAS) != n || len(dst.DstAS) != n || len(dst.InIf) != n || len(dst.OutIf) != n ||
				len(dst.Dir) != n || len(dst.TCPFlags) != n {
				t.Fatalf("%s: ragged columns after decode: len=%d", fr.name, n)
			}
		}
	})
}
