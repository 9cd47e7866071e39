// collectorpipe demonstrates the wire-format substrate end to end on the
// batch path: it generates one hour of synthetic IXP-CE flows as a
// columnar batch, exports it over UDP loopback in either supported
// format (NetFlow v9 or IPFIX), decodes each received datagram into a batch of the
// columns the classifier reads, and classifies the received rows into the
// paper's application classes without ever materialising per-record
// structs.
//
//	go run ./examples/collectorpipe [-format v9|ipfix]
//
// For the full experiment suite over the same wire (demuxed, checked
// bucket by bucket and fed into the engine), see `lockdown replay` and
// internal/replay.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/collector"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
)

func main() {
	formatName := flag.String("format", "ipfix", "wire format: v9 or ipfix")
	flag.Parse()
	format, err := collector.ParseFormat(*formatName)
	if err != nil {
		log.Fatal(err)
	}

	// Collector side: every datagram arrives undecoded, tagged with its
	// exporter stream (a single exporter here, so the tag is ignored).
	col, err := collector.NewCollector(format, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer col.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go col.Run(ctx)

	// Exporter side: one lockdown-evening hour of IXP-CE flows as a batch.
	cfg := synth.DefaultConfig(synth.IXPCE)
	cfg.FlowScale = 0.3
	g, err := synth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hour := time.Date(2020, 3, 25, 20, 0, 0, 0, time.UTC)
	flows := g.FlowsForHourBatch(hour)

	exp, err := collector.NewExporter(format, col.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer exp.Close()
	// Stamp the export at the end of the flows' hour, when a router
	// would have exported them.
	if err := exp.ExportBatchAt(flows, hour.Add(time.Hour)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d flow records as %v to %s\n", flows.Len(), format, col.Addr())

	// Decode each arriving datagram into one reused batch that stores only
	// the classifier's columns (the decoder skips the other fields), and
	// classify it column-wise; datagrams go back to the collector's pool
	// so the receive loop stays allocation-free.
	clf := appclass.NewDefault(nil)
	volumes := make(map[appclass.Class]uint64)
	decode, batch := col.NewDecoder(), flowrec.NewProjected(0, appclass.Columns)
	got := 0
	deadline := time.After(5 * time.Second)
loop:
	for got < flows.Len() {
		select {
		case d, ok := <-col.Tagged():
			if !ok {
				break loop
			}
			if d.Control {
				d.Release()
				continue // a control datagram; plain export sends none
			}
			batch.Reset()
			_, err := decode(batch, d.Data)
			d.Release()
			if err != nil {
				log.Fatal(err)
			}
			got += batch.Len()
			clf.VolumeByClassInto(volumes, batch)
		case <-deadline:
			break loop
		}
	}
	fmt.Printf("collected and classified %d records back\n\n", got)

	type kv struct {
		class appclass.Class
		gb    float64
	}
	var rows []kv
	for c, v := range volumes {
		rows = append(rows, kv{c, float64(v) / 1e9})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].gb > rows[j].gb })
	fmt.Println("application classes of the received records:")
	for _, r := range rows {
		fmt.Printf("  %-15s %10.1f GB\n", r.class, r.gb)
	}
}
