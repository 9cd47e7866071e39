// Package synth is the deterministic vantage-point traffic generator that
// substitutes for the proprietary NetFlow/IPFIX datasets of "The Lockdown
// Effect" (IMC 2020); docs/ARCHITECTURE.md ("Data substitution") explains
// how it fits into the pipeline.
//
// A Generator models one vantage point (the ISP-CE, one of the three IXPs,
// the EDU network, the mobile operator or the roaming IPX) as a set of
// traffic Components. Each component describes one kind of traffic — e.g.
// "hypergiant video on demand delivered to subscribers" or "incoming VPN
// connections of the EDU network" — with a baseline rate, diurnal profiles
// for workdays and weekends, and a lockdown Response describing how the
// component's volume changes over the January–May 2020 study window.
//
// The generator answers two kinds of queries:
//
//   - volume queries (bytes per hour, per class, per AS, per direction),
//     which are exact evaluations of the model and fast enough for the
//     multi-month figures, and
//   - flow-record sampling, which turns hourly component volumes into
//     synthetic flowrec.Batch rows for the flow-level analyses (top ports,
//     VPN detection, EDU connection counts, unique IPs). One span sampler
//     serves every caller: ComponentBatch samples a span of hours (a flow
//     key's day) into one batch of the columns it is asked for,
//     ComponentStream hands the same rows to a fold an hour at a time
//     through one scratch batch (how the read plan reduces a key without
//     holding its day), HourBatch is the one-hour span and
//     FlowsForHourBatch that hour at full width; the rows drawn are the
//     same, and HourFlows counts them hour by hour without drawing.
//
// Everything is deterministic for a fixed Config.Seed.
package synth

import (
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/diurnal"
	"lockdown/internal/flowrec"
)

// VantagePoint identifies one of the paper's measurement locations.
type VantagePoint string

// The vantage points of Section 2.
const (
	ISPCE  VantagePoint = "ISP-CE"
	IXPCE  VantagePoint = "IXP-CE"
	IXPSE  VantagePoint = "IXP-SE"
	IXPUS  VantagePoint = "IXP-US"
	EDU    VantagePoint = "EDU"
	Mobile VantagePoint = "MOBILE"
	IPX    VantagePoint = "IPX"
)

// AllVantagePoints lists every modelled vantage point in presentation
// order (the order of Figure 1's legend).
func AllVantagePoints() []VantagePoint {
	return []VantagePoint{ISPCE, IXPCE, IXPSE, IXPUS, Mobile, IPX, EDU}
}

// Class labels the traffic type of a component. The labels align with the
// application classes of Table 1 plus the extra port-level classes of
// Section 4 and the EDU connection classes of Appendix B.
type Class string

// Traffic classes.
const (
	ClassWeb         Class = "web"
	ClassQUIC        Class = "quic"
	ClassVoD         Class = "vod"
	ClassCDN         Class = "cdn"
	ClassSocial      Class = "social media"
	ClassGaming      Class = "gaming"
	ClassMessaging   Class = "messaging"
	ClassEmail       Class = "email"
	ClassWebConf     Class = "web conf"
	ClassCollab      Class = "coll. working"
	ClassEducational Class = "educational"
	ClassVPNPort     Class = "vpn-port"
	ClassVPNTLS      Class = "vpn-tls"
	ClassTunnel      Class = "gre-esp"
	ClassTVStream    Class = "tv-streaming"
	ClassCloudLB     Class = "cloudflare-lb"
	ClassAltHTTP     Class = "alt-http"
	ClassUnknownPort Class = "unknown-port"
	ClassPush        Class = "push"
	ClassMusic       Class = "music"
	ClassSSH         Class = "ssh"
	ClassRemoteDesk  Class = "remote-desktop"
	ClassEnterprise  Class = "enterprise"
	ClassOther       Class = "other"
)

// Response describes how a component's volume reacts to the pandemic
// timeline. All Peak values are multipliers relative to the pre-outbreak
// baseline: 1.0 means unchanged, 2.0 means +100%, 0.45 means -55%.
type Response struct {
	// Peak is the multiplier at the height of the lockdown.
	Peak float64
	// PeakWorkHours, if non-zero, overrides Peak during working hours
	// (09:00-16:59) of workdays. Used for remote-work traffic.
	PeakWorkHours float64
	// PeakWeekend, if non-zero, overrides Peak on weekend days and
	// holidays.
	PeakWeekend float64
	// Retained is the fraction of the lockdown change still present at
	// the end of the study window (after the relaxations): 1 keeps the
	// full change, 0 reverts to baseline.
	Retained float64
	// PreRamp is the fraction of the change already built up between the
	// outbreak and the lockdown (people voluntarily staying home).
	PreRamp float64
	// Delay shifts the whole timeline, modelling the later lockdown on
	// the US East Coast.
	Delay time.Duration
	// RampStart and RampFull, when set, override the default ramp window
	// (the formal lockdown date plus ten days). Behaviour-driven traffic
	// such as remote work, conferencing and messaging changed with the
	// first containment measures in early March, well before the formal
	// lockdowns.
	RampStart time.Time
	RampFull  time.Time
	// DecayStart, when set, overrides the default start of the
	// post-lockdown decay (the first relaxations in late April).
	DecayStart time.Time
	// Dip, if non-zero, is an extra multiplier applied between the
	// streaming resolution reduction (Mar 20) and the first relaxations,
	// modelling the hypergiants' video-quality reduction.
	Dip float64
	// Outage, if non-nil, zeroes or reduces the component during a short
	// interval (the gaming-provider outage of Figure 8).
	Outage *Outage
}

// Outage is a short service disruption window with a residual multiplier.
type Outage struct {
	Start    time.Time
	End      time.Time
	Residual float64 // volume multiplier during the outage (e.g. 0.25)
}

// Component is one modelled traffic aggregate of a vantage point.
type Component struct {
	// Name uniquely identifies the component within its vantage point.
	Name string
	// Class is the traffic class the component belongs to.
	Class Class
	// SrcASNs are the ASes originating the traffic (content side). The
	// first entries carry the largest share (Zipf weights).
	SrcASNs []uint32
	// DstASNs are the ASes consuming the traffic (eyeball or campus
	// side).
	DstASNs []uint32
	// Ports are the candidate server-side ports of the component's
	// flows; the first entry is the dominant one.
	Ports []flowrec.PortProto
	// Dir is the component's byte direction relative to the measured
	// network (meaningful for the ISP and EDU vantage points).
	Dir flowrec.Direction
	// ConnDir, if set, is the direction of the component's *connections*
	// when it differs from the byte direction. The EDU analysis labels a
	// campus user downloading from the Internet as an outgoing
	// connection even though the bytes flow inwards (Section 7). The
	// flow sampler stamps records with ConnDir; volume queries use Dir.
	ConnDir flowrec.Direction
	// BaseGbps is the pre-outbreak average rate of the component in
	// gigabits per second.
	BaseGbps float64
	// WeekendLevel scales the component's weekend volume relative to its
	// workday volume (1 = equal daily averages).
	WeekendLevel float64
	// Workday and Weekend are the component's diurnal shapes.
	Workday diurnal.Profile
	Weekend diurnal.Profile
	// LockdownShape, if set together with Shift, is the shape the
	// workday profile morphs into during the lockdown.
	LockdownShape diurnal.Profile
	// Shift, if non-nil, morphs the workday profile towards LockdownShape
	// (diurnal.LockdownWorkday if unset). The blend weight is the
	// excursion (Peak-1)·ramp(t) of its timeline, so Peak 2 reaches the
	// lockdown shape; its peak overrides, Dip and Outage are not read.
	Shift *Response
	// Resp describes the component's volume change over time.
	Resp Response
	// WeekendResp, if non-nil, replaces Resp on weekend days (the EDU
	// network grows slightly on weekends while collapsing on workdays).
	WeekendResp *Response
	// ConnResp, if non-nil, describes how the component's *connection
	// count* changes over time when it diverges from the volume response
	// (e.g. the EDU network serves more bytes per connection to fewer
	// outgoing connections after the closure). The flow sampler uses it;
	// volume queries ignore it.
	ConnResp *Response
	// Residential marks traffic exchanged with eyeball/subscriber ASes;
	// it feeds the remote-work analysis of Section 3.4.
	Residential bool
	// EndpointPool is the approximate number of distinct consumer-side
	// addresses active per hour at baseline; it grows with the response
	// multiplier (Figure 8 counts unique IPs).
	EndpointPool int
	// Waves are additional scenario lockdown waves layered on top of
	// Resp; empty for the built-in model (see overlay.go).
	Waves []Wave
	// Mods are flat scenario modulations (flash events, link outages);
	// empty for the built-in model.
	Mods []Modulation
	// Holidays are scenario-declared extra holidays treated as
	// weekend-like days; nil for the built-in model.
	Holidays *calendar.HolidaySet
}
