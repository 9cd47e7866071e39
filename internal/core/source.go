package core

import (
	"sync"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/dnsdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
	"lockdown/internal/vpndetect"
)

// FlowSource supplies the flow-level inputs of the experiment suite: the
// per-hour flow batches of a vantage point, the gateway-pinned variant
// used by the VPN analyses, and the per-component batches. The Dataset
// cache consumes exactly one FlowSource and memoizes every batch it
// returns behind the per-key sync.Once, so a source is asked for a key
// once — and again only when the batch was evicted under a cache budget
// with no span to bring it back from, which is why a source must return
// the same batch for the same key every time.
//
// Two implementations exist: the in-process synthetic generator (the
// default, see SyntheticSource) and the wire-replay bridge in package
// replay, which serves the same batches off live NetFlow/IPFIX export.
// Returned batches are published read-only through the cache; a source
// must never retain or mutate a batch after returning it.
//
// Ownership: a batch a source returns belongs to the caller, and only the
// caller may hand it to the flowrec pool (Batch.Release). The Dataset keeps
// what it caches and never releases it — an evicted batch is dropped, not
// released, because a pin-less reader may still hold it — so on the
// default path the pool the generator draws from (synth.HourBatch) is
// always empty and every batch is a fresh allocation. The wire-replay
// harness is the caller that releases: a pump releases the batch it
// exported once the bucket's END frame is out, and the bridge releases its
// reference when the fetch returns — after the NetFlow v5 repair has
// copied out of it — while the wire batch it returns passes to the cache
// like any other.
//
// Projection is a property of the batch kind: every scan of a kind reads
// inside the kind's column set below, so the default source generates
// (and the cache holds and spills) those columns and no others. A source
// may return more — the wire carries every field, so the bridge and
// SyntheticSource return full-width batches — and the cache stores a
// batch as delivered; it must not return fewer.
type FlowSource interface {
	FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error)
	VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error)
	ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error)
}

// The column set of each batch kind: the union of what the kernels that
// scan the kind read, each declared by the package that owns the kernel.
// A new reader of a kind widens the kind's set here; core's
// TestProjectedSuiteEqualsFullWidth fails when one is forgotten.
const (
	// flowColumns (22 B a row): the port histograms (server-port lanes
	// and bytes), the application classifier, and the EDU connection
	// counts by class and direction.
	flowColumns = flowrec.PortLaneColumns | flowrec.ColBytes | appclass.Columns | appclass.EDUColumns
	// vpnFlowColumns (21 B a row): the VPN detector, the one scan that
	// looks at both addresses.
	vpnFlowColumns = vpndetect.Columns
	// componentFlowColumns (12 B a row): Figure 8's volume and
	// unique-eyeball-address count of the gaming component.
	componentFlowColumns = flowrec.ColBytes | flowrec.ColDstIP
)

// DegradationReporter is implemented by flow sources that can serve
// explicitly-degraded results — empty batches standing in for
// component-hours the source could not deliver (the wire bridge's
// allow-partial mode). DegradedKeys lists those component-hours; an
// empty list means every batch the source served was complete. The
// Dataset forwards the report (Dataset.DegradedKeys) so a suite run can
// stamp exactly which inputs its output is missing.
type DegradationReporter interface {
	DegradedKeys() []string
}

// VPNData bundles the inputs of the domain-based VPN analyses: a
// gateway-pinned variant of the vantage point's generator and the matching
// detector built from the synthetic DNS corpus.
type VPNData struct {
	Gen      *synth.Generator
	Detector *vpndetect.Detector
}

// buildVPNData derives the VPN-analysis dataset from a vantage point's
// base generator: the synthetic DNS corpus names the VPN gateways, the
// generator is re-pinned to them, and the detector is built from the same
// corpus. Dataset.VPN and SyntheticSource share this derivation so the
// in-memory path and the wire-replay oracle can never drift apart.
func buildVPNData(g *synth.Generator) *VPNData {
	corpus, gateways := dnsdb.Generate(g.Registry(), dnsdb.DefaultGenerateOptions())
	return &VPNData{
		Gen:      g.WithVPNGateways(gateways),
		Detector: vpndetect.NewFromCorpus(corpus),
	}
}

// datasetSource is the default FlowSource of a Dataset: it draws batches
// from the dataset's own memoized generators, projected to the kind's
// column set.
type datasetSource struct{ d *Dataset }

func (s datasetSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	g, err := s.d.Generator(vp)
	if err != nil {
		return nil, err
	}
	return g.HourBatch(hour, "", flowColumns), nil
}

func (s datasetSource) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	vd, err := s.d.VPN(vp)
	if err != nil {
		return nil, err
	}
	return vd.Gen.HourBatch(hour, "", vpnFlowColumns), nil
}

func (s datasetSource) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	g, err := s.d.Generator(vp)
	if err != nil {
		return nil, err
	}
	return g.HourBatch(hour, name, componentFlowColumns), nil
}

// SyntheticSource is a standalone generator-backed FlowSource: it
// memoizes the generators (and the VPN gateway derivation) per vantage
// point but generates every requested batch on demand and full-width,
// without caching it. It is the model oracle of the wire-replay harness —
// both the pump (which exports the batches) and the bridge (which
// verifies the received rows bit-for-bit) hold one, and both release each
// batch when done with it (see FlowSource) — and can serve anywhere a
// FlowSource is needed without the memory footprint of a full Dataset.
type SyntheticSource struct {
	opts Options

	mu   sync.Mutex
	gens map[synth.VantagePoint]*sourceEntry
	vpns map[synth.VantagePoint]*sourceEntry
}

type sourceEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewSyntheticSource returns a generator-backed FlowSource for the given
// options.
func NewSyntheticSource(opts Options) *SyntheticSource {
	return &SyntheticSource{
		opts: opts,
		gens: make(map[synth.VantagePoint]*sourceEntry),
		vpns: make(map[synth.VantagePoint]*sourceEntry),
	}
}

// Options returns the options the source was built with.
func (s *SyntheticSource) Options() Options { return s.opts }

func (s *SyntheticSource) entry(m map[synth.VantagePoint]*sourceEntry, vp synth.VantagePoint) *sourceEntry {
	s.mu.Lock()
	e, ok := m[vp]
	if !ok {
		e = &sourceEntry{}
		m[vp] = e
	}
	s.mu.Unlock()
	return e
}

// Generator returns the memoized generator of a vantage point. As with
// Dataset.Generator, the instance is shared: never call its mutating
// methods.
func (s *SyntheticSource) Generator(vp synth.VantagePoint) (*synth.Generator, error) {
	e := s.entry(s.gens, vp)
	e.once.Do(func() {
		e.val, e.err = synth.New(s.opts.synthConfig(vp))
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.val.(*synth.Generator), nil
}

// VPN returns the memoized VPN-analysis dataset of a vantage point (the
// same derivation as Dataset.VPN).
func (s *SyntheticSource) VPN(vp synth.VantagePoint) (*VPNData, error) {
	e := s.entry(s.vpns, vp)
	e.once.Do(func() {
		g, err := s.Generator(vp)
		if err != nil {
			e.err = err
			return
		}
		e.val = buildVPNData(g)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.val.(*VPNData), nil
}

// FlowBatch generates the sampled flows of one hour (not memoized).
func (s *SyntheticSource) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	g, err := s.Generator(vp)
	if err != nil {
		return nil, err
	}
	return g.FlowsForHourBatch(hour), nil
}

// VPNFlowBatch generates one hour of the gateway-pinned generator's flows
// (not memoized).
func (s *SyntheticSource) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	vd, err := s.VPN(vp)
	if err != nil {
		return nil, err
	}
	return vd.Gen.FlowsForHourBatch(hour), nil
}

// ComponentFlowBatch generates one named component's flows for one hour
// (not memoized).
func (s *SyntheticSource) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	g, err := s.Generator(vp)
	if err != nil {
		return nil, err
	}
	return g.ComponentFlowsForHourBatch(name, hour), nil
}
