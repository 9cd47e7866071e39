package replay

import (
	"net"
	"sync"
	"testing"

	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/synth"
)

// BenchmarkBridgeDemux measures the bridge's demux throughput: three
// pumps stream one bucket each per iteration, concurrently, through one
// bridge socket. The per-op work is fixed (the same three component-hour
// buckets every iteration, references regenerated per fetch since the
// bridge does not cache), so allocs/op is a stable gate for the demux
// path — cmd/benchgate holds it against the baseline in CI.
func BenchmarkBridgeDemux(b *testing.B) {
	opts := core.Options{FlowScale: 0.1}
	br, _ := newShardedHarness(b, collector.FormatIPFIX, opts, 3)
	vps := []synth.VantagePoint{synth.ISPCE, synth.IXPCE, synth.IXPSE}
	// Warm the generators on both ends so iterations measure the wire
	// path, not one-time model construction.
	rowsPerOp := 0
	for _, vp := range vps {
		got, err := br.FlowBatch(vp, testHour)
		if err != nil {
			b.Fatal(err)
		}
		rowsPerOp += got.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, vp := range vps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := br.FlowBatch(vp, testHour); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(rowsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPumpServe measures one served bucket on the exporter side: the
// oracle's hour batch, IPFIX encode and the BEGIN/END frames, sent to a
// socket nobody reads. The batch is the pump's own and goes back to the
// pool after the END frame, so in steady state B/op holds the control
// frames and not the 22 B a row of the export batch (the flows/ columns).
func BenchmarkPumpServe(b *testing.B) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	pump, err := NewPump(PumpConfig{
		Format:   collector.FormatIPFIX,
		DataAddr: sink.LocalAddr().String(),
		Options:  core.Options{FlowScale: 0.5},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pump.Close()
	key := core.FlowKey{Kind: core.KindFlows, VP: synth.ISPCE, Hour: core.HourOf(testHour)}
	pump.serve(0, key) // build the generator outside the timed loop
	rows := pump.Stats().RowsSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pump.serve(uint32(i+1), key)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows), "rows/op")
}

// BenchmarkBridgeFetch measures one bucket end to end over a loopback
// pump/bridge pair: request, export, collect, reference, bit-for-bit
// verification. The bucket the fetch returns is the caller's (the dataset
// cache keeps it), so its 22 B a row (the flows/ columns) stay in B/op;
// the pump's export batch and the bridge's reference are pool-drawn and
// released, and do not.
func BenchmarkBridgeFetch(b *testing.B) {
	br, _ := newHarness(b, collector.FormatIPFIX, core.Options{FlowScale: 0.5})
	got, err := br.FlowBatch(synth.ISPCE, testHour) // warm both generators
	if err != nil {
		b.Fatal(err)
	}
	rows := got.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.FlowBatch(synth.ISPCE, testHour); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows), "rows/op")
}
