package collector

import (
	"context"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/ipfix"
	"lockdown/internal/netflow"
)

// collectTagged decodes tagged datagrams until want rows arrived or the
// timeout passes, returning rows per stream.
func collectTagged(c *Collector, want int, timeout time.Duration) map[uint32]int {
	out := make(map[uint32]int)
	got := 0
	decode, dst := c.NewDecoder(), flowrec.NewProjected(0, flowrec.ColBytes)
	deadline := time.After(timeout)
	for got < want {
		select {
		case d, ok := <-c.Tagged():
			if !ok {
				return out
			}
			dst.Reset()
			n, _ := decode(dst, d.Data)
			out[d.Stream] += n
			got += n
			d.Release()
		case <-deadline:
			return out
		}
	}
	return out
}

// TestTaggedCollectorDemuxesStreams sends the same rows from three
// exporters with distinct stream identities into one collector
// and checks per-datagram attribution in every format.
func TestTaggedCollectorDemuxesStreams(t *testing.T) {
	for _, format := range []Format{FormatNetflowV9, FormatIPFIX} {
		t.Run(format.String(), func(t *testing.T) {
			col, err := NewCollector(format, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go col.Run(ctx)
			defer col.Close()

			const perStream = 40
			streams := []uint32{1, 2, 3}
			for _, id := range streams {
				exp, err := NewStreamExporter(format, col.Addr(), id)
				if err != nil {
					t.Fatalf("NewStreamExporter(%d): %v", id, err)
				}
				if err := exp.ExportBatch(flowrec.FromRecords(testRecords(perStream))); err != nil {
					t.Fatal(err)
				}
				exp.Close()
			}
			got := collectTagged(col, perStream*len(streams), 3*time.Second)
			for _, id := range streams {
				if got[id] != perStream {
					t.Errorf("stream %d delivered %d rows, want %d (full demux: %v)", id, got[id], perStream, got)
				}
			}
		})
	}
}

// TestStreamIDReadsHeaders checks the raw header extraction against
// packets produced by the real encoders, plus the short-packet guard.
func TestStreamIDReadsHeaders(t *testing.T) {
	b := flowrec.FromRecords(testRecords(3))
	now := time.Now().UTC()

	enc9 := netflow.V9Encoder{SourceID: 70000}
	v9, err := enc9.EncodeBatch(nil, b, 0, b.Len(), now)
	if err != nil {
		t.Fatal(err)
	}
	if got := StreamID(FormatNetflowV9, v9); got != 70000 {
		t.Errorf("StreamID(v9) = %d, want 70000", got)
	}

	ipf := ipfix.Encoder{DomainID: 1 << 24}
	msg, err := ipf.EncodeBatch(nil, b, 0, b.Len(), now)
	if err != nil {
		t.Fatal(err)
	}
	if got := StreamID(FormatIPFIX, msg); got != 1<<24 {
		t.Errorf("StreamID(ipfix) = %d, want %d", got, 1<<24)
	}

	for _, format := range []Format{FormatNetflowV9, FormatIPFIX} {
		if got := StreamID(format, nil); got != 0 {
			t.Errorf("StreamID(%v, nil) = %d, want 0", format, got)
		}
		if got := StreamID(format, []byte{1, 2, 3}); got != 0 {
			t.Errorf("StreamID(%v, short) = %d, want 0", format, got)
		}
	}
}
