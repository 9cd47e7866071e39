package replay

import (
	"bytes"
	"testing"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// FuzzProtocolFrames feeds arbitrary datagrams to the two parsers of the
// replay protocol — parseCtrl reads what arrives on the bridge's data
// socket behind collector.ControlMagic, parseRequest what arrives on a
// pump's request socket. Neither may panic, and the layouts are canonical:
// a datagram either parser accepts re-encodes to exactly the bytes it was
// parsed from, so no two datagrams name the same frame and nothing rides
// along unread.
func FuzzProtocolFrames(f *testing.F) {
	keys := []core.FlowKey{
		{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.DayOf(testDay)},
		{Kind: core.KindVPNFlows, VP: synth.IXPCE, Hour: core.DayOf(testDay.Add(31 * 24 * time.Hour))},
		{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: core.DayOf(testDay)},
		{Hour: core.DayOf(time.Time{})},
	}
	for i, k := range keys {
		req := encodeRequest(uint32(i), 7, k)
		f.Add(req)
		f.Add(req[:len(req)/2])
		f.Add(append(req, 0))
		for _, typ := range []byte{frameBegin, frameEnd, frameNack} {
			digest := uint32(0)
			if typ == frameBegin {
				digest = 0x9e3779b9 << uint(i) // the pump's BEGIN carries its bucket's digest
			}
			ctrl := encodeCtrl(typ, uint32(i), 9, 42<<uint(8*i), digest, k, "boom")
			f.Add(ctrl)
			f.Add(ctrl[:len(ctrl)-3])
			f.Add(append(ctrl, 0))
		}
	}
	f.Add(encodeCtrl(frameBegin, 0, 1, 1, 0xffffffff, core.FlowKey{Kind: 9, VP: synth.EDU, Hour: core.DayOf(testDay)}, ""))
	// A component key and a flows/ key that are not a UTC day.
	at20 := core.HourOf(testDay.Add(20 * time.Hour))
	f.Add(encodeRequest(0, 1, core.FlowKey{Kind: core.KindComponentFlows, VP: synth.IXPSE, Name: "gaming", Hour: at20}))
	f.Add(encodeRequest(0, 1, core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: at20}))
	f.Add([]byte("LKRQ\x01aaaaaaaaaaaaaaaa")) // protocol version 1
	f.Add([]byte("LKRW\x02\x01"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if fr, err := parseCtrl(pkt); err == nil {
			if again := encodeCtrl(fr.typ, fr.stream, fr.gen, fr.rows, fr.digest, fr.key, fr.msg); !bytes.Equal(again, pkt) {
				t.Fatalf("control frame %+v re-encodes to\n%q, parsed from\n%q", fr, again, pkt)
			}
			if s, ok := FrameStream(pkt); !ok || s != fr.stream {
				t.Fatalf("FrameStream = %d, %v on an accepted frame of stream %d", s, ok, fr.stream)
			}
		}
		if stream, gen, k, err := parseRequest(pkt); err == nil {
			if again := encodeRequest(stream, gen, k); !bytes.Equal(again, pkt) {
				t.Fatalf("request (stream %d gen %d key %v) re-encodes to\n%q, parsed from\n%q", stream, gen, k, again, pkt)
			}
		}
	})
}
