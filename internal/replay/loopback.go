package replay

import (
	"context"
	"fmt"
	"sync"

	"lockdown/internal/synth"
)

// Loopback is the in-process topology of `lockdown replay`: one bridge and
// one pump per vantage point, the way the paper's ISP, IXPs and EDU network
// each export their own feed to one collector. Stream i serves
// synth.AllVantagePoints()[i] (seven streams, inside NetFlow v5's 8-bit
// engine ID), so a fetch for one vantage point never waits behind another's
// bucket, and routing by vantage point — not by key hash — means each pump
// only ever builds its own vantage point's generator. The CLI and the
// golden tests both build it here, so the tested topology is the shipped
// one.
type Loopback struct {
	Bridge *Bridge
	Pumps  []*Pump // indexed by stream id

	wg sync.WaitGroup
}

// NewLoopback opens the bridge cfg describes (its Route is set here) and
// one pump per vantage point exporting to it with the same format and
// options, paced at rate datagrams per second each (0 = unlimited), and
// connects every pump as its stream. Call Start, then use Bridge as the
// engine's FlowSource.
func NewLoopback(cfg Config, rate float64) (*Loopback, error) {
	vps := synth.AllVantagePoints()
	streamOf := make(map[synth.VantagePoint]uint32, len(vps))
	for i, vp := range vps {
		streamOf[vp] = uint32(i)
	}
	// A vantage point the model does not know routes to stream 0, whose
	// pump answers it with a NACK (only a capture-mode bridge asks).
	cfg.Route = func(k Key) uint32 { return streamOf[k.VP] }
	br, err := NewBridge(cfg)
	if err != nil {
		return nil, err
	}
	l := &Loopback{Bridge: br}
	for i := range vps {
		pump, err := NewPump(PumpConfig{
			Format:   cfg.Format,
			DataAddr: br.DataAddr(),
			Stream:   uint32(i),
			Rate:     rate,
			Options:  cfg.Options,
		})
		if err == nil {
			l.Pumps = append(l.Pumps, pump)
			err = br.ConnectStream(uint32(i), pump.CtrlAddr())
		}
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("replay: stream %d (%s): %w", i, vps[i], err)
		}
	}
	return l, nil
}

// Start runs the pumps and the bridge until ctx is cancelled or Close is
// called.
func (l *Loopback) Start(ctx context.Context) {
	for _, p := range l.Pumps {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			p.Run(ctx)
		}()
	}
	l.Bridge.Start(ctx)
}

// PumpStats returns the pumps' counters summed over all streams.
func (l *Loopback) PumpStats() PumpStats {
	var total PumpStats
	for _, p := range l.Pumps {
		total.add(p.Stats())
	}
	return total
}

// Close stops the pumps, waits for their serve loops to return and closes
// the bridge.
func (l *Loopback) Close() error {
	for _, p := range l.Pumps {
		p.Close()
	}
	l.wg.Wait()
	return l.Bridge.Close()
}
