package core

import (
	"fmt"
	"sync"
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/dnsdb"
	"lockdown/internal/flowrec"
	"lockdown/internal/synth"
	"lockdown/internal/vpndetect"
)

// FlowSource supplies the flow-level inputs of the experiment suite, one
// UTC day a batch: the flows of every component of a vantage point, the
// gateway-pinned variant used by the VPN analyses, and the flows of one
// component — one method per FlowKind. Each method takes the 00:00 UTC of
// its day and returns the hours of that day the key holds
// (FlowKey.Hours), in hour order. A Dataset consumes exactly one
// FlowSource, and a run's read plan asks it for each key once (the next
// run asks again), so a source must return the same batch for the same key
// every time.
//
// The generator-backed implementation is SyntheticSource; the wire-replay
// bridge in package replay serves the same batches off live NetFlow/IPFIX
// export. A Dataset whose source is its own model never asks it for a
// batch: the model streams each key's rows through the plan's reductions
// an hour at a time (Dataset.stream). Any other source's batch is cut
// into its hours, folded and dropped; nothing caches it, and a source must
// never retain or mutate a batch after returning it.
//
// Ownership: a batch a source returns belongs to the caller, and only the
// caller may hand it to the flowrec pool (Batch.Release). The Dataset
// folds a foreign source's batch and drops it, never releases it. On the
// default path the stream's one-hour scratch is the only batch, drawn
// from the pool and handed back at the end of each key. The wire-replay
// harness is the caller that releases: a pump releases the batch it
// exported once the bucket's END frame is out, and the bridge releases the
// one hour of the key it drew to check the bucket against (HourBatch) when
// the fetch returns, while the wire batch it returns passes to the read
// plan like any other.
//
// Projection is a property of the batch kind: every scan of a kind reads
// inside FlowKey.Columns, so a source returns those columns and the
// reductions read them and no others. Both sources in the tree return
// exactly that set — SyntheticSource generates it, and the wire bridge's
// pumps export it (their templates carry the kind's fields), and the
// bridge checks and returns it — so the pump, the bridge's checked hour
// and the dataset share one batch shape. A foreign source may return more columns, never fewer.
type FlowSource interface {
	FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error)
	VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error)
	ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error)
}

// FlowKind enumerates the draws a flow batch comes in, one per FlowSource
// method; a batch of every kind spans one UTC day. The values are the kind
// byte of the replay wire protocol.
type FlowKind uint8

const (
	KindFlows          FlowKind = iota // every component of the vantage point
	KindVPNFlows                       // the same, from the gateway-pinned generator
	KindComponentFlows                 // one named component
)

// String implements fmt.Stringer.
func (k FlowKind) String() string {
	switch k {
	case KindFlows:
		return "flows"
	case KindVPNFlows:
		return "vpn-flows"
	case KindComponentFlows:
		return "component-flows"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Hour is a whole UTC hour, counted from the Unix epoch. Every time.Time
// inside the hour — in any zone, with or without a monotonic reading —
// maps to the same value, which is what makes FlowKey comparable.
type Hour int64

// HourOf returns the hour t falls in.
func HourOf(t time.Time) Hour { return Hour(t.Truncate(time.Hour).Unix() / 3600) }

// DayOf returns the first hour of the UTC day t falls in: the Hour of a
// flow key.
func DayOf(t time.Time) Hour { return Hour(t.Truncate(24*time.Hour).Unix() / 3600) }

// Time returns the start of the hour, in UTC.
func (h Hour) Time() time.Time { return time.Unix(int64(h)*3600, 0).UTC() }

// FlowKey is the one name of a flow batch: the map key of a run's read
// plan, the request of the replay wire protocol and the key argument of
// trace spans. Two keys of the same batch are ==. Every key
// names one UTC day, so its Hour is the day's first (DayOf): the suite's
// readers sum whole days and weeks, and only Figures 9 and 10 split a day
// into working hours and the rest, which they tell apart by the hour of
// each piece their folds are handed. An hour is too few rows to be worth
// a plan slot and a wire bucket of its own.
type FlowKey struct {
	Kind FlowKind
	VP   synth.VantagePoint
	Name string // component name, KindComponentFlows only
	Hour Hour   // the first hour of the key's UTC day
}

// String renders the key for errors, logs and traces, with its day.
func (k FlowKey) String() string {
	day := k.Hour.Time().Format("2006-01-02")
	if k.Kind == KindComponentFlows {
		return fmt.Sprintf("%s/%s/%s@%s", k.Kind, k.VP, k.Name, day)
	}
	return fmt.Sprintf("%s/%s@%s", k.Kind, k.VP, day)
}

// End is the instant the key's day ends.
func (k FlowKey) End() time.Time { return k.Hour.Time().Add(24 * time.Hour) }

// Hours is the window of hours-of-day [from, to) of the key's day that
// its batch holds: the union of what the kind's readers read at the key's
// vantage point, each named below. A new reader widens the window here;
// TestKeyCensus fails when one is forgotten, and a reduction that declares
// hours outside the window is refused when a run plans it (newReadPlan).
func (k FlowKey) Hours() (from, to int) {
	if k.Kind == KindFlows && (k.VP == synth.IXPSE || k.VP == synth.IXPUS) {
		// Figure 9's working hours of workdays: the flows/ of the two
		// IXPs have no other reader, and a whole day would draw 13.6 %
		// more rows than the suite reads.
		return calendar.WorkStart, calendar.WorkEnd
	}
	// Every other key, the whole day: Figures 7a/7b (ISP-CE, IXP-CE) and
	// 12 (EDU) and the ablation-vpn scan (vpn-flows/ IXP-CE) sum whole
	// days, Figure 10 (vpn-flows/ IXP-CE) splits them into working hours
	// and the rest, Figure 9 reads the working hours at ISP-CE and IXP-CE,
	// and Figure 8 (component-flows/) sums whole ISO weeks.
	return 0, 24
}

// span is the interval of the key's batch: the Hours of its day.
func (k FlowKey) span() (from, to time.Time) {
	lo, hi := k.Hours()
	day := k.Hour.Time()
	return day.Add(time.Duration(lo) * time.Hour), day.Add(time.Duration(hi) * time.Hour)
}

// Columns is the column set of the key's kind: the union of what the
// kernels that scan the kind read, each declared by the package that owns
// the kernel. A new reader of a kind widens the kind's set here; core's
// TestProjectedSuiteEqualsFullWidth fails when one is forgotten.
func (k FlowKey) Columns() flowrec.Columns {
	switch k.Kind {
	case KindFlows:
		// 22 B a row: the port histograms (server-port lanes and bytes),
		// the application classifier, and the EDU connection counts by
		// class and direction.
		return flowrec.PortLaneColumns | flowrec.ColBytes | appclass.Columns | appclass.EDUColumns
	case KindVPNFlows:
		// 21 B a row: the VPN detector, the one scan that looks at both
		// addresses.
		return vpndetect.Columns
	case KindComponentFlows:
		// 12 B a row: Figure 8's volume and unique-eyeball-address count
		// of the gaming component.
		return flowrec.ColBytes | flowrec.ColDstIP
	default:
		return flowrec.AllColumns
	}
}

// fetch asks src for the batch k names.
func fetch(src FlowSource, k FlowKey) (*flowrec.Batch, error) {
	switch k.Kind {
	case KindFlows:
		return src.FlowBatch(k.VP, k.Hour.Time())
	case KindVPNFlows:
		return src.VPNFlowBatch(k.VP, k.Hour.Time())
	case KindComponentFlows:
		return src.ComponentFlowBatch(k.VP, k.Name, k.Hour.Time())
	default:
		return nil, fmt.Errorf("core: unknown batch kind %d", k.Kind)
	}
}

// VPNData bundles the inputs of the domain-based VPN analyses: a
// gateway-pinned variant of the vantage point's generator and the matching
// detector built from the synthetic DNS corpus.
type VPNData struct {
	Gen      *synth.Generator
	Detector *vpndetect.Detector
}

// memo is one lazily built, shared value.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get returns the value, building it on the first call. count, when set,
// is told whether this lookup was the one that built.
func (m *memo[T]) get(count func(miss bool), build func() (T, error)) (T, error) {
	miss := false
	m.once.Do(func() {
		miss = true
		m.val, m.err = build()
	})
	if count != nil {
		count(miss)
	}
	return m.val, m.err
}

// vpModel is a vantage point's traffic model as one Options value resolves
// it, each part built on first use and then shared: the generator (whose
// construction asks Options.Model, exactly once) and the VPN-analysis data
// derived from it.
type vpModel struct {
	gen memo[*synth.Generator]
	vpn memo[*VPNData]
}

// SyntheticSource is the generator-backed FlowSource: it memoizes the
// model of each vantage point but generates every requested batch on
// demand, without caching it, storing the key's FlowKey.Columns. It is the
// model oracle of the wire-replay harness: the pump holds one and exports
// its day batches, and the bridge holds one and draws no day from it,
// only each key's hour counts (HourFlows) and one hour (HourBatch) to
// check the received buckets against; both release each batch when done
// with it (see FlowSource). A Dataset holds one for its generators, which
// is also its default flow source; the Dataset streams it (stream) instead
// of asking it for batches.
type SyntheticSource struct {
	opts  Options
	count func(miss bool) // the owning dataset's lookup accounting, for every lookup; nil standalone

	mu     sync.Mutex
	models map[synth.VantagePoint]*vpModel
}

// NewSyntheticSource returns a generator-backed FlowSource for the given
// options.
func NewSyntheticSource(opts Options) *SyntheticSource {
	return &SyntheticSource{opts: opts, models: make(map[synth.VantagePoint]*vpModel)}
}

func (s *SyntheticSource) model(vp synth.VantagePoint) *vpModel {
	s.mu.Lock()
	m := s.models[vp]
	if m == nil {
		m = &vpModel{}
		s.models[vp] = m
	}
	s.mu.Unlock()
	return m
}

// Generator returns the shared generator of a vantage point. The instance
// is safe for concurrent read-only use; never call its mutating methods.
func (s *SyntheticSource) Generator(vp synth.VantagePoint) (*synth.Generator, error) {
	return s.model(vp).gen.get(s.count, func() (*synth.Generator, error) {
		return synth.New(s.opts.synthConfig(vp))
	})
}

// VPN returns the shared VPN-analysis data of a vantage point: the
// synthetic DNS corpus names the VPN gateways, the generator is re-pinned
// to them, and the detector is built from the same corpus.
func (s *SyntheticSource) VPN(vp synth.VantagePoint) (*VPNData, error) {
	return s.model(vp).vpn.get(s.count, func() (*VPNData, error) {
		g, err := s.Generator(vp)
		if err != nil {
			return nil, err
		}
		corpus, gateways := dnsdb.Generate(g.Registry(), dnsdb.DefaultGenerateOptions())
		return &VPNData{Gen: g.WithVPNGateways(gateways), Detector: vpndetect.NewFromCorpus(corpus)}, nil
	})
}

// Batch generates the batch k names (not memoized).
func (s *SyntheticSource) Batch(k FlowKey) (*flowrec.Batch, error) { return fetch(s, k) }

// FlowBatch generates the sampled flows of the UTC day that starts at day
// (not memoized).
func (s *SyntheticSource) FlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindFlows, VP: vp}, day)
}

// VPNFlowBatch generates one UTC day of the gateway-pinned generator's
// flows (not memoized).
func (s *SyntheticSource) VPNFlowBatch(vp synth.VantagePoint, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindVPNFlows, VP: vp}, day)
}

// ComponentFlowBatch generates one named component's flows for the UTC
// day that starts at day (not memoized).
func (s *SyntheticSource) ComponentFlowBatch(vp synth.VantagePoint, name string, day time.Time) (*flowrec.Batch, error) {
	return s.draw(FlowKey{Kind: KindComponentFlows, VP: vp, Name: name}, day)
}

// draw generates the batch of k at the UTC day that starts at day: the
// key's Hours of it, storing the key's Columns. A time that is not 00:00
// UTC names no key and is refused.
func (s *SyntheticSource) draw(k FlowKey, day time.Time) (*flowrec.Batch, error) {
	k.Hour = DayOf(day)
	if !day.Equal(k.Hour.Time()) {
		return nil, fmt.Errorf("core: key %s at %s is not at 00:00 UTC", k, day.UTC().Format(time.RFC3339))
	}
	g, err := s.generator(k)
	if err != nil {
		return nil, err
	}
	from, to := k.span()
	return g.ComponentBatch(k.Name, from, to, k.Columns()), nil
}

// stream hands the rows of k to fold in synth.Generator.ComponentStream's
// pieces, storing the key's Columns, and returns how many there were.
func (s *SyntheticSource) stream(k FlowKey, fold func(hour int, piece *flowrec.Batch)) (int, error) {
	g, err := s.generator(k)
	if err != nil {
		return 0, err
	}
	from, to := k.span()
	return g.ComponentStream(k.Name, from, to, k.Columns(), fold), nil
}

// HourFlows returns the row count of every hour of k's batch, the first
// for the first hour of its Hours window, without drawing a row (see
// synth.Generator.HourFlows).
func (s *SyntheticSource) HourFlows(k FlowKey) ([]int, error) {
	g, err := s.generator(k)
	if err != nil {
		return nil, err
	}
	from, to := k.span()
	return g.HourFlows(k.Name, from, to), nil
}

// HourBatch draws one hour of k's batch, the hour of day given, storing
// the key's Columns: the rows that hour's count in HourFlows places in
// the day's batch (synth.Generator.HourBatch is the one-hour span of the
// day's draw). The batch comes from the flowrec pool, and the caller
// releases it.
func (s *SyntheticSource) HourBatch(k FlowKey, hour int) (*flowrec.Batch, error) {
	g, err := s.generator(k)
	if err != nil {
		return nil, err
	}
	return g.HourBatch(k.Hour.Time().Add(time.Duration(hour)*time.Hour), k.Name, k.Columns()), nil
}

// generator returns the model k's kind draws from: the gateway-pinned one
// for vpn-flows/, the vantage point's own for the others.
func (s *SyntheticSource) generator(k FlowKey) (*synth.Generator, error) {
	if k.Kind == KindVPNFlows {
		vd, err := s.VPN(k.VP)
		if err != nil {
			return nil, err
		}
		return vd.Gen, nil
	}
	return s.Generator(k.VP)
}
