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
	for _, format := range []Format{FormatNetflowV5, FormatNetflowV9, FormatIPFIX} {
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

	v5, err := netflow.EncodeV5StreamBatch(nil, b, 0, b.Len(), now, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := StreamID(FormatNetflowV5, v5); got != 42 {
		t.Errorf("StreamID(v5) = %d, want 42", got)
	}

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

	for _, format := range []Format{FormatNetflowV5, FormatNetflowV9, FormatIPFIX} {
		if got := StreamID(format, nil); got != 0 {
			t.Errorf("StreamID(%v, nil) = %d, want 0", format, got)
		}
		if got := StreamID(format, []byte{1, 2, 3}); got != 0 {
			t.Errorf("StreamID(%v, short) = %d, want 0", format, got)
		}
	}
}

// TestStreamExporterRejectsWideV5Stream pins the NetFlow v5 limit: the
// engine ID is one byte, so stream identities beyond it must be refused
// rather than silently truncated into a colliding stream.
func TestStreamExporterRejectsWideV5Stream(t *testing.T) {
	if _, err := NewStreamExporter(FormatNetflowV5, "127.0.0.1:9", MaxV5Stream+1); err == nil {
		t.Fatal("v5 exporter accepted a stream beyond the 8-bit engine ID")
	}
	exp, err := NewStreamExporter(FormatNetflowV5, "127.0.0.1:9", MaxV5Stream)
	if err != nil {
		t.Fatalf("v5 exporter rejected the maximum 8-bit stream: %v", err)
	}
	exp.Close()
	// The wide formats carry the full 32 bits.
	exp, err = NewStreamExporter(FormatIPFIX, "127.0.0.1:9", 1<<20)
	if err != nil {
		t.Fatalf("ipfix exporter rejected a wide stream: %v", err)
	}
	exp.Close()
}
