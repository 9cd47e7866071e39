package synth

import (
	"time"

	"lockdown/internal/asdb"
	"lockdown/internal/diurnal"
	"lockdown/internal/flowrec"
)

// Config describes one vantage point to generate traffic for.
type Config struct {
	VP         VantagePoint
	Registry   *asdb.Registry
	Seed       int64
	Components []Component
	// Members is the number of IXP member ports modelled for the link
	// utilisation analysis (IXP vantage points only).
	Members int
	// FlowScale scales the number of flow records the sampler emits per
	// hour (1 = default density). Lower values make flow-level
	// experiments cheaper without changing volumes.
	FlowScale float64
	// Variant tags configurations whose components differ from the
	// built-in model of VP (compiled scenarios): a non-empty Variant is
	// what marks a non-identity model for scenario.Scenario.Identity.
	// Empty for DefaultConfig.
	Variant string
}

func tcp(port uint16) flowrec.PortProto {
	return flowrec.PortProto{Proto: flowrec.ProtoTCP, Port: port}
}
func udp(port uint16) flowrec.PortProto {
	return flowrec.PortProto{Proto: flowrec.ProtoUDP, Port: port}
}
func gre() flowrec.PortProto { return flowrec.PortProto{Proto: flowrec.ProtoGRE} }
func esp() flowrec.PortProto { return flowrec.PortProto{Proto: flowrec.ProtoESP} }

// AS number groups used by the component definitions. They reference the
// registry in package asdb.
var (
	asVoD          = []uint32{2906, 46489, 40027, 394406, 203561}
	asHGWeb        = []uint32{15169, 20940, 13335, 714, 8075, 16509, 22822, 15133, 10310}
	asHGQUIC       = []uint32{15169, 20940}
	asSocial       = []uint32{32934, 13414, 54888, 138699, 47764}
	asCDNOther     = []uint32{54113, 60068, 32787}
	asGaming       = []uint32{32590, 57976, 6507, 11282, 33353}
	asWebConf      = []uint32{30103, 13445, 8075, 46652}
	asCollab       = []uint32{19679, 394699, 2635}
	asMessaging    = []uint32{62041, 59930, 21321, 32934}
	asEducational  = []uint32{20965, 680, 766, 11537, 64600}
	asEnterprise   = []uint32{64801, 64802, 64803, 64804, 64805}
	asHosting      = []uint32{16276, 8560, 24940, 14061}
	asEyeballEU    = []uint32{64700, 3320, 3209, 6830, 12956, 12479}
	asEyeballUS    = []uint32{7922, 701, 7018}
	asEyeballSE    = []uint32{12956, 12479, 64700}
	asMailEU       = []uint32{29838, 8075, 15169}
	asMobileOps    = []uint32{64710}
	asRoaming      = []uint32{64711}
	asCampus       = []uint32{64600, 766}
	asPushServices = []uint32{714, 15169}
	// Spotify (AS8403 in Appendix B) is represented by a generic
	// European hosting AS in the synthetic registry.
	asMusic = []uint32{24940}
)

// earlyResponse marks behaviour-driven components (remote work,
// conferencing, messaging, remote education) whose change began with the
// first containment measures in early March — well before the formal
// lockdown — and whose decline started around Easter when parts of the
// workforce gradually returned on-site.
func earlyResponse(r Response) Response {
	r.RampStart = time.Date(2020, 3, 5, 0, 0, 0, 0, time.UTC)
	r.RampFull = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
	r.DecayStart = time.Date(2020, 4, 6, 0, 0, 0, 0, time.UTC)
	// The early ramp itself is the pre-lockdown build-up; a separate
	// pre-ramp would already inflate the February baseline weeks.
	r.PreRamp = 0
	return r
}

// earlyDemand marks entertainment components whose growth began with the
// school closures and stay-home recommendations, slightly later than the
// remote-work shift but still before the formal lockdown.
func earlyDemand(r Response) Response {
	r.RampStart = time.Date(2020, 3, 10, 0, 0, 0, 0, time.UTC)
	r.RampFull = time.Date(2020, 3, 18, 0, 0, 0, 0, time.UTC)
	r.PreRamp = 0
	return r
}

// DefaultConfig returns the built-in model of the given vantage point,
// calibrated so that the analyses reproduce the qualitative results of the
// paper (see DESIGN.md for the per-figure expectations).
func DefaultConfig(vp VantagePoint) Config {
	cfg := Config{
		VP:        vp,
		Registry:  asdb.Default(),
		Seed:      2020,
		FlowScale: 1,
	}
	switch vp {
	case ISPCE:
		cfg.Components = ispCEComponents()
	case IXPCE:
		cfg.Components = ixpComponents(ixpCentral)
		cfg.Members = 180
	case IXPSE:
		cfg.Components = ixpComponents(ixpSouth)
		cfg.Members = 90
	case IXPUS:
		cfg.Components = ixpComponents(ixpUS)
		cfg.Members = 110
	case EDU:
		cfg.Components = eduComponents()
	case Mobile:
		cfg.Components = mobileComponents()
	case IPX:
		cfg.Components = ipxComponents()
	}
	return cfg
}

// ispCEComponents models the Central European ISP (Figures 1-4, 6, 7a, 9).
// Baseline rates are in Gbps of subscriber-facing (non-transit) traffic
// except for the explicitly marked transit components.
func ispCEComponents() []Component {
	res := diurnal.ResidentialWorkday()
	resWE := diurnal.ResidentialWeekend()
	office := diurnal.OfficeHours()
	entertainment := diurnal.EveningEntertainment()
	allday := diurnal.AllDayEntertainment()

	return []Component{
		{
			Name: "hypergiant-vod", Class: ClassVoD,
			SrcASNs: asVoD, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 330, WeekendLevel: 1.15,
			Workday: entertainment, Weekend: resWE, LockdownShape: allday, ShiftsPattern: true,
			Resp:         Response{Peak: 1.30, PeakWeekend: 1.2, Retained: 0.25, PreRamp: 0.3, Dip: 0.90},
			Residential:  true,
			EndpointPool: 4000,
		},
		{
			Name: "hypergiant-web", Class: ClassWeb,
			SrcASNs: asHGWeb, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443), tcp(80)},
			Dir: flowrec.DirIngress, BaseGbps: 300, WeekendLevel: 1.05,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.15, PeakWorkHours: 1.18, Retained: 0.3, PreRamp: 0.25},
			Residential:  true,
			EndpointPool: 6000,
		},
		{
			Name: "hypergiant-quic", Class: ClassQUIC,
			SrcASNs: asHGQUIC, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{udp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 130, WeekendLevel: 1.1,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.45, PeakWorkHours: 1.55, PeakWeekend: 1.35, Retained: 0.4, PreRamp: 0.25},
			Residential:  true,
			EndpointPool: 5000,
		},
		{
			Name: "hypergiant-social", Class: ClassSocial,
			SrcASNs: asSocial[:2], DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 70, WeekendLevel: 1.1,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.7, PeakWeekend: 1.5, Retained: 0.15, PreRamp: 0.3},
			Residential:  true,
			EndpointPool: 5000,
		},
		{
			Name: "other-social", Class: ClassSocial,
			SrcASNs: asSocial[2:], DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 25, WeekendLevel: 1.1,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.6, Retained: 0.2, PreRamp: 0.3},
			Residential:  true,
			EndpointPool: 3000,
		},
		{
			Name: "cdn-other", Class: ClassCDN,
			SrcASNs: asCDNOther, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 60, WeekendLevel: 1.05,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.45, PeakWorkHours: 1.6, Retained: 0.5, PreRamp: 0.25},
			Residential:  true,
			EndpointPool: 4000,
		},
		{
			Name: "gaming", Class: ClassGaming,
			SrcASNs: asGaming, DstASNs: asEyeballEU,
			Ports: []flowrec.PortProto{udp(3074), udp(27015), udp(3659), tcp(27015), udp(30000)},
			Dir:   flowrec.DirIngress, BaseGbps: 40, WeekendLevel: 1.3,
			Workday: entertainment, Weekend: resWE, LockdownShape: allday, ShiftsPattern: true,
			Resp:         Response{Peak: 1.12, PeakWeekend: 1.10, Retained: 0.5, PreRamp: 0.2},
			Residential:  true,
			EndpointPool: 2500,
		},
		{
			Name: "web-conferencing", Class: ClassWebConf,
			SrcASNs: asWebConf, DstASNs: asEyeballEU,
			Ports: []flowrec.PortProto{udp(8801), udp(3480), udp(3478), tcp(443)},
			Dir:   flowrec.DirIngress, BaseGbps: 4, WeekendLevel: 0.6,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 2.4, PeakWorkHours: 3.4, PeakWeekend: 2.2, Retained: 0.6, PreRamp: 0.15}),
			Residential:  true,
			EndpointPool: 1500,
		},
		{
			Name: "collaborative-working", Class: ClassCollab,
			SrcASNs: asCollab, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 8, WeekendLevel: 0.7,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 1.8, PeakWorkHours: 2.3, PeakWeekend: 1.4, Retained: 0.5, PreRamp: 0.2}),
			Residential:  true,
			EndpointPool: 1200,
		},
		{
			Name: "messaging", Class: ClassMessaging,
			SrcASNs: asMessaging, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443), tcp(5222)},
			Dir: flowrec.DirIngress, BaseGbps: 8, WeekendLevel: 1.1,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         earlyResponse(Response{Peak: 2.6, PeakWorkHours: 3.1, PeakWeekend: 2.4, Retained: 0.5, PreRamp: 0.3}),
			Residential:  true,
			EndpointPool: 6000,
		},
		{
			Name: "email", Class: ClassEmail,
			SrcASNs: asMailEU, DstASNs: asEyeballEU,
			Ports: []flowrec.PortProto{tcp(993), tcp(587), tcp(995), tcp(465), tcp(25)},
			Dir:   flowrec.DirIngress, BaseGbps: 4, WeekendLevel: 0.6,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 1.3, PeakWorkHours: 1.6, PeakWeekend: 1.05, Retained: 0.4, PreRamp: 0.15}),
			Residential:  true,
			EndpointPool: 3000,
		},
		{
			Name: "educational", Class: ClassEducational,
			SrcASNs: asEducational, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 5, WeekendLevel: 0.5,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 2.5, PeakWorkHours: 3.0, PeakWeekend: 1.3, Retained: 0.4, PreRamp: 0.1}),
			Residential:  true,
			EndpointPool: 1500,
		},
		{
			Name: "vpn-wellknown", Class: ClassVPNPort,
			SrcASNs: asEnterprise, DstASNs: asEyeballEU,
			Ports: []flowrec.PortProto{udp(4500), udp(1194), udp(500), tcp(1194)},
			Dir:   flowrec.DirEgress, BaseGbps: 5, WeekendLevel: 0.5,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 1.9, PeakWorkHours: 2.6, PeakWeekend: 1.1, Retained: 0.5, PreRamp: 0.2}),
			Residential:  true,
			EndpointPool: 1200,
		},
		{
			Name: "vpn-tls", Class: ClassVPNTLS,
			SrcASNs: asEnterprise, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 6, WeekendLevel: 0.5,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 2.2, PeakWorkHours: 3.2, PeakWeekend: 1.3, Retained: 0.5, PreRamp: 0.2}),
			Residential:  true,
			EndpointPool: 1200,
		},
		{
			Name: "gre-esp-tunnels", Class: ClassTunnel,
			SrcASNs: asEnterprise, DstASNs: asEnterprise, Ports: []flowrec.PortProto{gre(), esp()},
			Dir: flowrec.DirEgress, BaseGbps: 8, WeekendLevel: 0.6,
			Workday: office, Weekend: resWE,
			Resp:         Response{Peak: 1.08, PeakWeekend: 0.95, Retained: 0.5, PreRamp: 0.1},
			Residential:  false,
			EndpointPool: 300,
		},
		{
			Name: "tv-streaming-8200", Class: ClassTVStream,
			SrcASNs: []uint32{203561}, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(8200)},
			Dir: flowrec.DirIngress, BaseGbps: 6, WeekendLevel: 1.2,
			Workday: entertainment, Weekend: resWE, LockdownShape: allday, ShiftsPattern: true,
			Resp:         Response{Peak: 1.35, PeakWeekend: 1.4, Retained: 0.4, PreRamp: 0.2},
			Residential:  true,
			EndpointPool: 800,
		},
		{
			Name: "cloudflare-lb-2408", Class: ClassCloudLB,
			SrcASNs: []uint32{13335}, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{udp(2408)},
			Dir: flowrec.DirIngress, BaseGbps: 6, WeekendLevel: 1.0,
			Workday: res, Weekend: resWE,
			Resp:         Response{Peak: 1.02, Retained: 0.5},
			Residential:  true,
			EndpointPool: 1500,
		},
		{
			Name: "alt-http-8080", Class: ClassAltHTTP,
			SrcASNs: asHosting, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(8080)},
			Dir: flowrec.DirIngress, BaseGbps: 20, WeekendLevel: 1.0,
			Workday: res, Weekend: resWE,
			Resp:         Response{Peak: 1.03, Retained: 0.5},
			Residential:  true,
			EndpointPool: 2000,
		},
		{
			Name: "unknown-25461", Class: ClassUnknownPort,
			SrcASNs: asHosting, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(25461)},
			Dir: flowrec.DirIngress, BaseGbps: 10, WeekendLevel: 1.1,
			Workday: entertainment, Weekend: resWE,
			Resp:         Response{Peak: 1.22, Retained: 0.4, PreRamp: 0.2},
			Residential:  true,
			EndpointPool: 900,
		},
		{
			Name: "push-notifications", Class: ClassPush,
			SrcASNs: asPushServices, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(5223), tcp(5228)},
			Dir: flowrec.DirIngress, BaseGbps: 2, WeekendLevel: 1.0,
			Workday: res, Weekend: resWE,
			Resp:         Response{Peak: 0.95, Retained: 0.5},
			Residential:  true,
			EndpointPool: 8000,
		},
		{
			Name: "music-streaming", Class: ClassMusic,
			SrcASNs: asMusic, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(4070), tcp(443)},
			Dir: flowrec.DirIngress, BaseGbps: 6, WeekendLevel: 1.05,
			Workday: res, Weekend: resWE,
			Resp:         Response{Peak: 1.15, Retained: 0.4},
			Residential:  true,
			EndpointPool: 2500,
		},
		{
			Name: "other-web", Class: ClassWeb,
			SrcASNs: asHosting, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443), tcp(80)},
			Dir: flowrec.DirIngress, BaseGbps: 120, WeekendLevel: 1.0,
			Workday: res, Weekend: resWE, ShiftsPattern: true,
			Resp:         Response{Peak: 1.33, PeakWorkHours: 1.48, Retained: 0.45, PreRamp: 0.25},
			Residential:  true,
			EndpointPool: 7000,
		},
		// Transit components (included only in the remote-work analysis,
		// which uses the ISP's full view including transit).
		{
			Name: "enterprise-branch-interconnect", Class: ClassEnterprise,
			// Branch-office interconnects of two enterprises collapse when
			// offices empty; these ASes lose total traffic while their
			// residential (remote-work) traffic grows — the top-left
			// quadrant of Figure 6.
			SrcASNs: []uint32{64805, 64803}, DstASNs: asHosting, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 35, WeekendLevel: 0.4,
			Workday: office, Weekend: resWE,
			Resp:         Response{Peak: 0.45, PeakWeekend: 0.7, Retained: 0.3, PreRamp: 0.2},
			Residential:  false,
			EndpointPool: 500,
		},
		{
			Name: "enterprise-office-transit", Class: ClassEnterprise,
			SrcASNs: asEnterprise, DstASNs: asHosting, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 30, WeekendLevel: 0.4,
			Workday: office, Weekend: resWE,
			Resp:         Response{Peak: 0.55, PeakWeekend: 0.8, Retained: 0.3, PreRamp: 0.2},
			Residential:  false,
			EndpointPool: 600,
		},
		{
			Name: "enterprise-remote-work", Class: ClassEnterprise,
			SrcASNs: asEnterprise, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 12, WeekendLevel: 0.5,
			Workday: office, Weekend: resWE,
			Resp:         earlyResponse(Response{Peak: 2.0, PeakWorkHours: 2.7, PeakWeekend: 1.2, Retained: 0.5, PreRamp: 0.2}),
			Residential:  true,
			EndpointPool: 1000,
		},
	}
}

// ixpRegion parametrises the shared IXP component template.
type ixpRegion struct {
	name         VantagePoint
	scale        float64 // overall size relative to IXP-CE
	delay        time.Duration
	eyeballs     []uint32
	vodPeak      float64
	vodDip       float64
	cdnPeak      float64
	socialPeak   float64
	gamingPeak   float64
	messagingPk  float64
	emailPeak    float64
	eduPeak      float64
	confPeak     float64
	collabPeak   float64
	retained     float64
	gamingOutage *Outage
	timezoneMix  bool // IXP-US: members across many time zones flatten diurnal shape
}

var (
	ixpCentral = ixpRegion{
		name: IXPCE, scale: 1.0, eyeballs: asEyeballEU,
		vodPeak: 2.0, vodDip: 0.82, cdnPeak: 1.45, socialPeak: 1.8, gamingPeak: 1.8,
		messagingPk: 3.0, emailPeak: 1.25, eduPeak: 1.15, confPeak: 3.3, collabPeak: 1.6,
		retained: 0.65,
	}
	ixpSouth = ixpRegion{
		name: IXPSE, scale: 0.07, eyeballs: asEyeballSE,
		vodPeak: 1.9, vodDip: 0.85, cdnPeak: 1.4, socialPeak: 1.9, gamingPeak: 2.2,
		messagingPk: 3.1, emailPeak: 1.2, eduPeak: 1.0, confPeak: 3.2, collabPeak: 2.2,
		retained: 0.7,
		gamingOutage: &Outage{
			Start:    time.Date(2020, 3, 16, 0, 0, 0, 0, time.UTC),
			End:      time.Date(2020, 3, 18, 0, 0, 0, 0, time.UTC),
			Residual: 0.25,
		},
	}
	ixpUS = ixpRegion{
		name: IXPUS, scale: 0.09, delay: 8 * 24 * time.Hour, eyeballs: asEyeballUS,
		vodPeak: 0.88, vodDip: 0, cdnPeak: 0.95, socialPeak: 1.5, gamingPeak: 1.9,
		messagingPk: 0.8, emailPeak: 1.9, eduPeak: 0.55, confPeak: 3.1, collabPeak: 2.0,
		retained: 0.8, timezoneMix: true,
	}
)

// ixpComponents models the public peering platform of an IXP. Baselines
// are expressed relative to the IXP-CE (scaled by region.scale, with the
// IXP-CE peaking above 8 Tbps).
func ixpComponents(r ixpRegion) []Component {
	res := diurnal.ResidentialWorkday()
	resWE := diurnal.ResidentialWeekend()
	office := diurnal.OfficeHours()
	entertainment := diurnal.EveningEntertainment()
	allday := diurnal.AllDayEntertainment()
	flat := diurnal.Flat()

	wd, we := res, resWE
	if r.timezoneMix {
		// Members from many time zones flatten the curve.
		wd = diurnal.Blend(res, flat, 0.5)
		we = diurnal.Blend(resWE, flat, 0.5)
	}
	s := func(g float64) float64 { return g * r.scale }

	comps := []Component{
		{
			Name: "vod-streaming", Class: ClassVoD,
			SrcASNs: asVoD, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(1400), WeekendLevel: 1.15,
			Workday: entertainment, Weekend: we, LockdownShape: allday, ShiftsPattern: true,
			Resp:         earlyDemand(Response{Peak: r.vodPeak, Retained: r.retained, PreRamp: 0.3, Dip: r.vodDip, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 6000,
		},
		{
			Name: "hypergiant-web", Class: ClassWeb,
			SrcASNs: asHGWeb, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443), tcp(80)},
			BaseGbps: s(1500), WeekendLevel: 1.05,
			Workday: wd, Weekend: we, ShiftsPattern: true,
			Resp:         Response{Peak: 1.22, PeakWorkHours: 1.35, Retained: r.retained, PreRamp: 0.25, Delay: r.delay},
			Residential:  true,
			EndpointPool: 9000,
		},
		{
			Name: "quic", Class: ClassQUIC,
			SrcASNs: asHGQUIC, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{udp(443)},
			BaseGbps: s(700), WeekendLevel: 1.1,
			Workday: wd, Weekend: we, ShiftsPattern: true,
			Resp:         Response{Peak: 1.5, PeakWorkHours: 1.6, Retained: r.retained, PreRamp: 0.25, Delay: r.delay},
			Residential:  true,
			EndpointPool: 8000,
		},
		{
			Name: "cdn", Class: ClassCDN,
			SrcASNs: append(append([]uint32{}, asCDNOther...), 20940, 13335), DstASNs: r.eyeballs,
			Ports:    []flowrec.PortProto{tcp(443)},
			BaseGbps: s(900), WeekendLevel: 1.05,
			Workday: wd, Weekend: we, ShiftsPattern: true,
			Resp:         Response{Peak: r.cdnPeak, Retained: r.retained, PreRamp: 0.25, Delay: r.delay},
			Residential:  true,
			EndpointPool: 7000,
		},
		{
			Name: "social-media", Class: ClassSocial,
			SrcASNs: asSocial, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(450), WeekendLevel: 1.1,
			Workday: wd, Weekend: we, ShiftsPattern: true,
			Resp:         earlyResponse(Response{Peak: r.socialPeak, Retained: 0.15, PreRamp: 0.3, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 8000,
		},
		{
			Name: "gaming", Class: ClassGaming,
			SrcASNs: asGaming, DstASNs: r.eyeballs,
			Ports:    []flowrec.PortProto{udp(3074), udp(27015), udp(3659), tcp(27015), udp(30000), udp(8393)},
			BaseGbps: s(260), WeekendLevel: 1.3,
			Workday: entertainment, Weekend: we, LockdownShape: allday, ShiftsPattern: true,
			Resp: earlyDemand(Response{Peak: r.gamingPeak, PeakWeekend: r.gamingPeak * 0.95, Retained: 0.6, PreRamp: 0.2,
				Delay: r.delay, Outage: r.gamingOutage}),
			Residential:  true,
			EndpointPool: 5000,
		},
		{
			Name: "web-conferencing", Class: ClassWebConf,
			SrcASNs: asWebConf, DstASNs: r.eyeballs,
			Ports:    []flowrec.PortProto{udp(3480), udp(8801), udp(3478), tcp(443)},
			BaseGbps: s(60), WeekendLevel: 0.6,
			Workday: office, Weekend: we,
			Resp: earlyResponse(Response{Peak: r.confPeak * 0.75, PeakWorkHours: r.confPeak, PeakWeekend: r.confPeak * 0.7,
				Retained: 0.6, PreRamp: 0.15, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 2500,
		},
		{
			Name: "collaborative-working", Class: ClassCollab,
			SrcASNs: asCollab, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(90), WeekendLevel: 0.7,
			Workday: office, Weekend: we,
			Resp: earlyResponse(Response{Peak: r.collabPeak, PeakWorkHours: r.collabPeak * 1.25, Retained: 0.5, PreRamp: 0.2,
				Delay: r.delay}),
			Residential:  true,
			EndpointPool: 2000,
		},
		{
			Name: "messaging", Class: ClassMessaging,
			SrcASNs: asMessaging, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443), tcp(5222)},
			BaseGbps: s(80), WeekendLevel: 1.1,
			Workday: wd, Weekend: we, ShiftsPattern: true,
			Resp:         earlyResponse(Response{Peak: r.messagingPk, Retained: 0.5, PreRamp: 0.3, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 9000,
		},
		{
			Name: "email", Class: ClassEmail,
			SrcASNs: asMailEU, DstASNs: r.eyeballs,
			Ports:    []flowrec.PortProto{tcp(993), tcp(587), tcp(995), tcp(465), tcp(25)},
			BaseGbps: s(40), WeekendLevel: 0.6,
			Workday: office, Weekend: we,
			Resp: earlyResponse(Response{Peak: r.emailPeak, PeakWorkHours: r.emailPeak * 1.15, PeakWeekend: 1.0,
				Retained: 0.4, PreRamp: 0.15, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 4000,
		},
		{
			Name: "educational", Class: ClassEducational,
			SrcASNs: asEducational, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(50), WeekendLevel: 0.5,
			Workday: office, Weekend: we,
			Resp:         earlyResponse(Response{Peak: r.eduPeak, Retained: 0.5, PreRamp: 0.1, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 2500,
		},
		{
			Name: "vpn-wellknown", Class: ClassVPNPort,
			SrcASNs: asEnterprise, DstASNs: r.eyeballs,
			Ports:    []flowrec.PortProto{udp(4500), udp(1194), udp(500), tcp(1194), udp(1701), tcp(1723)},
			BaseGbps: s(45), WeekendLevel: 0.5,
			Workday: office, Weekend: we,
			// NAT-traversal/OpenVPN ports grow during working hours
			// (Figure 7b) while the GRE/ESP decline keeps the total
			// port-identified VPN volume roughly flat (Section 6).
			Resp:         earlyResponse(Response{Peak: 1.15, PeakWorkHours: 1.5, PeakWeekend: 0.95, Retained: 0.5, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 2000,
		},
		{
			Name: "vpn-tls", Class: ClassVPNTLS,
			SrcASNs: asEnterprise, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(55), WeekendLevel: 0.5,
			Workday: office, Weekend: we,
			Resp: earlyResponse(Response{Peak: 2.2, PeakWorkHours: 3.3, PeakWeekend: 1.4, Retained: 0.55, PreRamp: 0.2,
				Delay: r.delay}),
			Residential:  true,
			EndpointPool: 2000,
		},
		{
			Name: "gre-esp-tunnels", Class: ClassTunnel,
			SrcASNs: asEnterprise, DstASNs: asHosting, Ports: []flowrec.PortProto{gre(), esp()},
			BaseGbps: s(70), WeekendLevel: 0.6,
			Workday: office, Weekend: we,
			// Inter-company tunnels decrease at the IXP after the lockdown.
			Resp:         Response{Peak: 0.8, PeakWeekend: 0.9, Retained: 0.4, Delay: r.delay},
			Residential:  false,
			EndpointPool: 500,
		},
		{
			Name: "tv-streaming-8200", Class: ClassTVStream,
			SrcASNs: []uint32{203561}, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(8200)},
			BaseGbps: s(90), WeekendLevel: 1.2,
			Workday: entertainment, Weekend: we, LockdownShape: allday, ShiftsPattern: true,
			Resp:         earlyDemand(Response{Peak: 1.5, PeakWeekend: 1.6, Retained: 0.5, PreRamp: 0.2, Delay: r.delay}),
			Residential:  true,
			EndpointPool: 1500,
		},
		{
			Name: "cloudflare-lb-2408", Class: ClassCloudLB,
			SrcASNs: []uint32{13335}, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{udp(2408)},
			BaseGbps: s(60), WeekendLevel: 1.0,
			Workday: wd, Weekend: we,
			Resp:         Response{Peak: 1.02, Retained: 0.5, Delay: r.delay},
			Residential:  true,
			EndpointPool: 3000,
		},
		{
			Name: "alt-http-8080", Class: ClassAltHTTP,
			SrcASNs: asHosting, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(8080)},
			BaseGbps: s(130), WeekendLevel: 1.0,
			Workday: wd, Weekend: we,
			Resp:         Response{Peak: 1.03, Retained: 0.5, Delay: r.delay},
			Residential:  true,
			EndpointPool: 4000,
		},
		{
			Name: "unknown-25461", Class: ClassUnknownPort,
			SrcASNs: asHosting, DstASNs: r.eyeballs, Ports: []flowrec.PortProto{tcp(25461)},
			BaseGbps: s(110), WeekendLevel: 1.1,
			Workday: entertainment, Weekend: we,
			Resp:         Response{Peak: 1.2, Retained: 0.4, PreRamp: 0.2, Delay: r.delay},
			Residential:  true,
			EndpointPool: 1500,
		},
		{
			Name: "other-peering", Class: ClassOther,
			SrcASNs: asHosting, DstASNs: asHosting, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: s(600), WeekendLevel: 0.95,
			Workday: wd, Weekend: we,
			Resp:         Response{Peak: 1.18, Retained: r.retained, PreRamp: 0.25, Delay: r.delay},
			Residential:  false,
			EndpointPool: 6000,
		},
	}
	return comps
}

// eduComponents models the REDImadrid-like metropolitan educational
// network of Section 7. Directions are relative to the EDU network:
// ingress is traffic entering it, egress traffic leaving it.
func eduComponents() []Component {
	campus := diurnal.CampusDay()
	remote := diurnal.RemoteCampusAccess()
	resWE := diurnal.ResidentialWeekend()

	weekendGrow := &Response{Peak: 1.12, Retained: 0.6, PreRamp: 0.2}
	weekendMild := &Response{Peak: 1.04, Retained: 0.6, PreRamp: 0.2}

	return []Component{
		{
			Name: "campus-downloads", Class: ClassWeb,
			SrcASNs: append(append([]uint32{}, asHGWeb...), asVoD...), DstASNs: asCampus,
			Ports: []flowrec.PortProto{tcp(443), tcp(80), udp(443)},
			// Bytes flow into the campus but the connections are opened
			// by campus users towards the Internet (outgoing).
			Dir: flowrec.DirIngress, ConnDir: flowrec.DirEgress, BaseGbps: 7.0, WeekendLevel: 0.25,
			Workday: campus, Weekend: resWE,
			Resp:        Response{Peak: 0.32, Retained: 0.9, PreRamp: 0.05},
			WeekendResp: weekendGrow,
			Residential: false, EndpointPool: 4000,
		},
		{
			Name: "campus-uploads", Class: ClassWeb,
			SrcASNs: asCampus, DstASNs: asHosting, Ports: []flowrec.PortProto{tcp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 0.45, WeekendLevel: 0.3,
			Workday: campus, Weekend: resWE,
			Resp:        Response{Peak: 0.5, Retained: 0.9, PreRamp: 0.05},
			WeekendResp: weekendMild,
			Residential: false, EndpointPool: 2000,
		},
		{
			Name: "incoming-web-remote", Class: ClassWeb,
			SrcASNs: asEyeballEU, DstASNs: asCampus, Ports: []flowrec.PortProto{tcp(443), tcp(80)},
			Dir: flowrec.DirIngress, BaseGbps: 0.30, WeekendLevel: 0.5,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			Resp:        Response{Peak: 1.7, PeakWorkHours: 1.9, Retained: 0.85, PreRamp: 0.1},
			WeekendResp: weekendGrow,
			Residential: true, EndpointPool: 5000,
		},
		{
			Name: "outgoing-web-serving", Class: ClassWeb,
			SrcASNs: asCampus, DstASNs: asEyeballEU, Ports: []flowrec.PortProto{tcp(443), tcp(80)},
			// Responses served to remote users: bytes leave the campus but
			// the connections were opened from the outside (incoming).
			Dir: flowrec.DirEgress, ConnDir: flowrec.DirIngress, BaseGbps: 0.35, WeekendLevel: 0.5,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			// Served volume grows faster than the number of incoming web
			// connections (+77% in the paper), so the connection response
			// is tracked separately from the byte response.
			Resp:        Response{Peak: 2.6, PeakWorkHours: 3.0, Retained: 0.85, PreRamp: 0.1},
			ConnResp:    &Response{Peak: 1.75, PeakWorkHours: 1.9, Retained: 0.85, PreRamp: 0.1},
			WeekendResp: weekendGrow,
			Residential: true, EndpointPool: 5000,
		},
		{
			Name: "incoming-email", Class: ClassEmail,
			SrcASNs: asEyeballEU, DstASNs: asCampus,
			Ports: []flowrec.PortProto{tcp(993), tcp(587), tcp(25), tcp(465)},
			Dir:   flowrec.DirIngress, BaseGbps: 0.06, WeekendLevel: 0.4,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			Resp:        Response{Peak: 1.8, PeakWorkHours: 2.0, Retained: 0.8, PreRamp: 0.1},
			WeekendResp: weekendMild,
			Residential: true, EndpointPool: 3000,
		},
		{
			Name: "incoming-vpn", Class: ClassVPNPort,
			SrcASNs: asEyeballEU, DstASNs: asCampus,
			Ports: []flowrec.PortProto{udp(4500), udp(1194), udp(500), tcp(1194)},
			Dir:   flowrec.DirIngress, BaseGbps: 0.05, WeekendLevel: 0.4,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			Resp:        Response{Peak: 4.8, PeakWorkHours: 5.4, Retained: 0.85, PreRamp: 0.1},
			WeekendResp: &Response{Peak: 2.0, Retained: 0.8, PreRamp: 0.1},
			Residential: true, EndpointPool: 2500,
		},
		{
			Name: "incoming-remote-desktop", Class: ClassRemoteDesk,
			SrcASNs: asEyeballEU, DstASNs: asCampus,
			Ports: []flowrec.PortProto{tcp(3389), tcp(1494), tcp(5938)},
			Dir:   flowrec.DirIngress, BaseGbps: 0.02, WeekendLevel: 0.4,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			Resp:        Response{Peak: 5.9, PeakWorkHours: 6.5, Retained: 0.85, PreRamp: 0.1},
			WeekendResp: &Response{Peak: 2.5, Retained: 0.8, PreRamp: 0.1},
			Residential: true, EndpointPool: 1500,
		},
		{
			Name: "incoming-ssh", Class: ClassSSH,
			SrcASNs: asEyeballEU, DstASNs: asCampus, Ports: []flowrec.PortProto{tcp(22)},
			Dir: flowrec.DirIngress, BaseGbps: 0.015, WeekendLevel: 0.5,
			Workday: campus, Weekend: resWE, LockdownShape: remote, ShiftsPattern: true,
			Resp:        Response{Peak: 9.1, PeakWorkHours: 9.6, Retained: 0.85, PreRamp: 0.1},
			WeekendResp: &Response{Peak: 4.0, Retained: 0.8, PreRamp: 0.1},
			Residential: true, EndpointPool: 1200,
		},
		{
			Name: "outgoing-push-mobile", Class: ClassPush,
			SrcASNs: asCampus, DstASNs: asPushServices, Ports: []flowrec.PortProto{tcp(5223), tcp(5228)},
			Dir: flowrec.DirEgress, BaseGbps: 0.03, WeekendLevel: 0.3,
			Workday: campus, Weekend: resWE,
			// Mobile devices left the campus: push traffic collapses.
			Resp:        Response{Peak: 0.35, Retained: 0.9, PreRamp: 0.05},
			WeekendResp: &Response{Peak: 0.5, Retained: 0.9},
			Residential: false, EndpointPool: 3000,
		},
		{
			Name: "outgoing-spotify", Class: ClassMusic,
			SrcASNs: asCampus, DstASNs: asMusic, Ports: []flowrec.PortProto{tcp(4070)},
			Dir: flowrec.DirEgress, BaseGbps: 0.04, WeekendLevel: 0.3,
			Workday: campus, Weekend: resWE,
			Resp:        Response{Peak: 0.17, Retained: 0.9, PreRamp: 0.05},
			WeekendResp: &Response{Peak: 0.4, Retained: 0.9},
			Residential: false, EndpointPool: 2000,
		},
		{
			Name: "outgoing-quic-hypergiants", Class: ClassQUIC,
			SrcASNs: asCampus, DstASNs: asHGQUIC, Ports: []flowrec.PortProto{udp(443)},
			Dir: flowrec.DirEgress, BaseGbps: 0.05, WeekendLevel: 0.3,
			Workday: campus, Weekend: resWE,
			Resp:        Response{Peak: 0.3, Retained: 0.9, PreRamp: 0.05},
			WeekendResp: &Response{Peak: 0.5, Retained: 0.9},
			Residential: false, EndpointPool: 3500,
		},
	}
}

// mobileComponents models the mobile operator of Figure 1: a slight
// decrease during the lockdown (subscribers switch to Wi-Fi at home).
func mobileComponents() []Component {
	res := diurnal.ResidentialWorkday()
	resWE := diurnal.ResidentialWeekend()
	return []Component{
		{
			Name: "mobile-data", Class: ClassWeb,
			SrcASNs: asHGWeb, DstASNs: asMobileOps, Ports: []flowrec.PortProto{tcp(443), udp(443)},
			BaseGbps: 900, WeekendLevel: 1.05,
			Workday: res, Weekend: resWE,
			Resp:        Response{Peak: 0.93, PeakWeekend: 0.95, Retained: 0.4, PreRamp: 0.3},
			Residential: true, EndpointPool: 9000,
		},
	}
}

// ipxComponents models the mobile roaming exchange of Figure 1, whose
// traffic collapses with international travel.
func ipxComponents() []Component {
	res := diurnal.ResidentialWorkday()
	resWE := diurnal.ResidentialWeekend()
	return []Component{
		{
			Name: "roaming-data", Class: ClassWeb,
			SrcASNs: asRoaming, DstASNs: asMobileOps, Ports: []flowrec.PortProto{tcp(443)},
			BaseGbps: 60, WeekendLevel: 1.1,
			Workday: res, Weekend: resWE,
			Resp:        Response{Peak: 0.45, PeakWeekend: 0.4, Retained: 0.8, PreRamp: 0.4},
			Residential: true, EndpointPool: 4000,
		},
	}
}
