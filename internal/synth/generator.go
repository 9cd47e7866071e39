package synth

import (
	"fmt"
	"net/netip"
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/timeseries"
)

// Generator evaluates the traffic model of one vantage point. It is safe
// for concurrent use: all queries are pure functions of the configuration.
type Generator struct {
	cfg Config
	reg *asdb.Registry
	// plan is cfg.Components compiled for evaluation (see plan.go),
	// index-aligned with it.
	plan []componentPlan
	// vpnGateways are the addresses the vpn-tls components should pin
	// their enterprise-side endpoints to (see Config and Section 6).
	vpnGateways []gateway
}

// gateway is a VPN gateway address, in column form, and the AS owning
// its prefix.
type gateway struct {
	addr flowrec.Addr
	asn  uint32
}

// New validates cfg, compiles its components and returns a Generator.
// Missing optional fields are filled with defaults (the built-in AS
// registry, flow scale 1). The configuration is compiled here, once:
// cfg.Components must not be modified afterwards.
func New(cfg Config) (*Generator, error) {
	if len(cfg.Components) == 0 {
		return nil, fmt.Errorf("synth: config for %q has no components", cfg.VP)
	}
	if cfg.Registry == nil {
		cfg.Registry = asdb.Default()
	}
	if cfg.FlowScale <= 0 {
		cfg.FlowScale = 1
	}
	seen := make(map[string]bool, len(cfg.Components))
	for i := range cfg.Components {
		c := &cfg.Components[i]
		if c.Name == "" {
			return nil, fmt.Errorf("synth: component with empty name in %q", cfg.VP)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("synth: duplicate component %q in %q", c.Name, cfg.VP)
		}
		seen[c.Name] = true
		if c.BaseGbps < 0 {
			return nil, fmt.Errorf("synth: component %q has negative base rate", c.Name)
		}
		if len(c.SrcASNs) == 0 || len(c.DstASNs) == 0 {
			return nil, fmt.Errorf("synth: component %q lacks source or destination ASes", c.Name)
		}
		if len(c.Ports) == 0 || len(c.Ports) > maxPorts {
			return nil, fmt.Errorf("synth: component %q has %d ports, want 1 to %d", c.Name, len(c.Ports), maxPorts)
		}
		for _, asns := range [][]uint32{c.SrcASNs, c.DstASNs} {
			for _, asn := range asns {
				if _, ok := cfg.Registry.Lookup(asn); !ok {
					return nil, fmt.Errorf("synth: component %q references unknown AS%d", c.Name, asn)
				}
			}
		}
	}
	plan, err := compile(&cfg)
	if err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, reg: cfg.Registry, plan: plan}, nil
}

// NewDefault builds a generator for the built-in model of the vantage
// point.
func NewDefault(vp VantagePoint) (*Generator, error) {
	return New(DefaultConfig(vp))
}

// MustNewDefault is NewDefault for use in examples and benchmarks where
// the built-in configurations are known to be valid.
func MustNewDefault(vp VantagePoint) *Generator {
	g, err := NewDefault(vp)
	if err != nil {
		panic(err)
	}
	return g
}

// SetVPNGateways pins the enterprise-side endpoints of the ClassVPNTLS
// components to the given addresses, so that the domain-based VPN
// detection (package vpndetect) can rediscover them. Addresses outside the
// registry's space are ignored.
func (g *Generator) SetVPNGateways(addrs []netip.Addr) {
	g.vpnGateways = nil
	for _, a := range addrs {
		as, ok := g.reg.LookupIP(a)
		col, err := flowrec.AddrFrom(a)
		if ok && err == nil {
			g.vpnGateways = append(g.vpnGateways, gateway{addr: col, asn: as.ASN})
		}
	}
}

// WithVPNGateways returns a copy of g with the VPN gateways pinned as in
// SetVPNGateways, leaving g untouched. Callers that share one generator
// (e.g. a dataset cache) use this to derive the gateway-pinned variant
// without mutating the shared instance.
func (g *Generator) WithVPNGateways(addrs []netip.Addr) *Generator {
	c := *g
	c.SetVPNGateways(addrs)
	return &c
}

// VP returns the vantage point this generator models.
func (g *Generator) VP() VantagePoint { return g.cfg.VP }

// Registry returns the AS registry backing the generator.
func (g *Generator) Registry() *asdb.Registry { return g.reg }

// Components returns the modelled components. The slice is shared; do not
// modify.
func (g *Generator) Components() []Component { return g.cfg.Components }

// hourlyVolume sums every component's volume for hour h.
func (g *Generator) hourlyVolume(h *hour) float64 {
	var v float64
	for i := range g.plan {
		v += g.plan[i].evaluate(h).volume
	}
	return v
}

// HourlyVolume returns the total bytes of the hour starting at t.
func (g *Generator) HourlyVolume(t time.Time) float64 {
	h := hourAt(t)
	return g.hourlyVolume(&h)
}

// hourlySeries returns an empty series with room for every hour eachHour
// visits in [from, to), so the builders below never reallocate.
func hourlySeries(name string, from, to time.Time) *timeseries.Series {
	s := timeseries.New(name)
	if _, n := hoursOf(from, to); n > 0 {
		s.Grow(n)
	}
	return s
}

// TotalSeries returns the hourly total-volume series for [from, to).
func (g *Generator) TotalSeries(from, to time.Time) *timeseries.Series {
	s := hourlySeries(string(g.cfg.VP)+" total", from, to)
	eachHour(from, to, func(h *hour) {
		s.Add(h.start, g.hourlyVolume(h))
	})
	return s
}

// ClassSeries returns the hourly series of one traffic class for [from,
// to).
func (g *Generator) ClassSeries(class Class, from, to time.Time) *timeseries.Series {
	s := hourlySeries(string(g.cfg.VP)+" "+string(class), from, to)
	eachHour(from, to, func(h *hour) {
		var v float64
		for i := range g.plan {
			if g.plan[i].c.Class == class {
				v += g.plan[i].evaluate(h).volume
			}
		}
		s.Add(h.start, v)
	})
	return s
}

// Classes returns the distinct traffic classes present in the model.
func (g *Generator) Classes() []Class {
	seen := make(map[Class]bool)
	var out []Class
	for i := range g.cfg.Components {
		if class := g.cfg.Components[i].Class; !seen[class] {
			seen[class] = true
			out = append(out, class)
		}
	}
	return out
}

// zipfWeights returns normalised 1/(i+1) weights for n items.
func zipfWeights(n int) []float64 {
	if n == 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / float64(i+1)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// hypergiantSplit returns the bytes of hour h delivered by hypergiant ASes
// and by all other ASes (Section 3.2, Figure 4). As in the paper, only
// subscriber-facing (non-transit) traffic is considered.
func (g *Generator) hypergiantSplit(h *hour) (hypergiant, other float64) {
	for i := range g.plan {
		p := &g.plan[i]
		if !p.c.Residential {
			continue
		}
		v := p.evaluate(h).volume
		hypergiant += v * p.hypergiantShare
		other += v * (1 - p.hypergiantShare)
	}
	return hypergiant, other
}

// HypergiantSeries returns hourly series for hypergiant and other-AS
// traffic over [from, to).
func (g *Generator) HypergiantSeries(from, to time.Time) (hypergiant, other *timeseries.Series) {
	hypergiant = hourlySeries(string(g.cfg.VP)+" hypergiants", from, to)
	other = hourlySeries(string(g.cfg.VP)+" other ASes", from, to)
	eachHour(from, to, func(h *hour) {
		hg, o := g.hypergiantSplit(h)
		hypergiant.Add(h.start, hg)
		other.Add(h.start, o)
	})
	return hypergiant, other
}

// directionSplit returns the bytes entering (ingress) and leaving (egress)
// the measured network in hour h. Components without a direction are split
// evenly.
func (g *Generator) directionSplit(h *hour) (ingress, egress float64) {
	for i := range g.plan {
		v := g.plan[i].evaluate(h).volume
		switch g.plan[i].c.Dir {
		case flowrec.DirIngress:
			ingress += v
		case flowrec.DirEgress:
			egress += v
		default:
			ingress += v / 2
			egress += v / 2
		}
	}
	return ingress, egress
}

// DirectionSeries returns hourly ingress and egress series over [from,
// to).
func (g *Generator) DirectionSeries(from, to time.Time) (ingress, egress *timeseries.Series) {
	ingress = hourlySeries(string(g.cfg.VP)+" ingress", from, to)
	egress = hourlySeries(string(g.cfg.VP)+" egress", from, to)
	eachHour(from, to, func(h *hour) {
		in, out := g.directionSplit(h)
		ingress.Add(h.start, in)
		egress.Add(h.start, out)
	})
	return ingress, egress
}

// ASHourVolume is the per-AS attribution of one hour of traffic.
type ASHourVolume struct {
	Total       float64
	Residential float64
}

// asVolumesInto attributes hour h to source ASes, accumulating into out.
func (g *Generator) asVolumesInto(out map[uint32]ASHourVolume, h *hour) {
	for i := range g.plan {
		p := &g.plan[i]
		v := p.evaluate(h).volume
		for j, asn := range p.c.SrcASNs {
			e := out[asn]
			share := v * p.srcWeights[j]
			e.Total += share
			if p.c.Residential {
				e.Residential += share
			}
			out[asn] = e
		}
	}
}

// ASVolumeBetween attributes the whole-hour grid of [from, to) to source
// ASes, reporting both total bytes and the bytes exchanged with eyeball
// networks (residential traffic). It feeds the remote-work analysis of
// Section 3.4.
func (g *Generator) ASVolumeBetween(from, to time.Time) map[uint32]ASHourVolume {
	out := make(map[uint32]ASHourVolume)
	hourly := make(map[uint32]ASHourVolume)
	eachHour(from, to, func(h *hour) {
		clear(hourly)
		g.asVolumesInto(hourly, h)
		for asn, v := range hourly {
			e := out[asn]
			e.Total += v.Total
			e.Residential += v.Residential
			out[asn] = e
		}
	})
	return out
}
