// Package ports is the transport-port registry used by the port-level
// analysis (Section 4) and the EDU traffic classes (Appendix B) of "The
// Lockdown Effect" (IMC 2020). It maps well-known port/protocol pairs to
// the service names the paper uses and
// groups them into coarse service categories.
package ports

import (
	"sort"

	"lockdown/internal/flowrec"
)

// Category is a coarse service category for a port.
type Category string

// Service categories referenced by the paper.
const (
	CatWeb        Category = "web"
	CatQUIC       Category = "quic"
	CatVPN        Category = "vpn"
	CatEmail      Category = "email"
	CatConf       Category = "conferencing"
	CatStreaming  Category = "streaming"
	CatGaming     Category = "gaming"
	CatSSH        Category = "ssh"
	CatRemoteDesk Category = "remote-desktop"
	CatPush       Category = "push-notifications"
	CatMusic      Category = "music-streaming"
	CatCDN        Category = "cdn"
)

// Service describes one well-known port.
type Service struct {
	Port     flowrec.PortProto
	Name     string
	Category Category
}

func pp(proto flowrec.Proto, port uint16) flowrec.PortProto {
	return flowrec.PortProto{Proto: proto, Port: port}
}

// registry lists every port the paper's analyses reference, taken from
// Section 4 (top ports at ISP-CE / IXP-CE), Section 6 (VPN protocols) and
// Appendix B (EDU traffic classes).
var registry = []Service{
	// Web.
	{pp(flowrec.ProtoTCP, 80), "HTTP", CatWeb},
	{pp(flowrec.ProtoTCP, 443), "HTTPS", CatWeb},
	{pp(flowrec.ProtoTCP, 8080), "HTTP-alt", CatWeb},
	{pp(flowrec.ProtoTCP, 8000), "HTTP-alt-8000", CatWeb},
	{pp(flowrec.ProtoUDP, 443), "QUIC", CatQUIC},

	// VPN and tunnelling (Section 6, Appendix B).
	{pp(flowrec.ProtoUDP, 500), "IPsec-IKE", CatVPN},
	{pp(flowrec.ProtoUDP, 4500), "IPsec-NAT-T", CatVPN},
	{pp(flowrec.ProtoTCP, 1194), "OpenVPN-TCP", CatVPN},
	{pp(flowrec.ProtoUDP, 1194), "OpenVPN", CatVPN},
	{pp(flowrec.ProtoTCP, 1701), "L2TP-TCP", CatVPN},
	{pp(flowrec.ProtoUDP, 1701), "L2TP", CatVPN},
	{pp(flowrec.ProtoTCP, 1723), "PPTP", CatVPN},
	{pp(flowrec.ProtoUDP, 1723), "PPTP-UDP", CatVPN},
	{pp(flowrec.ProtoGRE, 0), "GRE", CatVPN},
	{pp(flowrec.ProtoESP, 0), "ESP", CatVPN},

	// Email (Appendix B, Section 4).
	{pp(flowrec.ProtoTCP, 25), "SMTP", CatEmail},
	{pp(flowrec.ProtoTCP, 110), "POP3", CatEmail},
	{pp(flowrec.ProtoTCP, 143), "IMAP", CatEmail},
	{pp(flowrec.ProtoTCP, 465), "SMTPS", CatEmail},
	{pp(flowrec.ProtoTCP, 587), "Submission", CatEmail},
	{pp(flowrec.ProtoTCP, 993), "IMAPS", CatEmail},
	{pp(flowrec.ProtoTCP, 995), "POP3S", CatEmail},

	// Conferencing and telephony (Section 4).
	{pp(flowrec.ProtoUDP, 3480), "Skype/Teams-STUN", CatConf},
	{pp(flowrec.ProtoUDP, 8801), "Zoom-connector", CatConf},
	{pp(flowrec.ProtoUDP, 3478), "STUN", CatConf},
	{pp(flowrec.ProtoUDP, 50000), "WebRTC-media", CatConf},

	// Streaming and CDN helpers.
	{pp(flowrec.ProtoTCP, 8200), "TV-streaming", CatStreaming},
	{pp(flowrec.ProtoUDP, 2408), "Cloudflare-LB", CatCDN},
	{pp(flowrec.ProtoTCP, 25461), "Unknown-hosting", CatStreaming},

	// Push notifications and mobile services (Appendix B).
	{pp(flowrec.ProtoTCP, 5223), "APNs", CatPush},
	{pp(flowrec.ProtoTCP, 5228), "GCM/FCM", CatPush},

	// Music streaming (Appendix B).
	{pp(flowrec.ProtoTCP, 4070), "Spotify", CatMusic},

	// Remote access (Appendix B).
	{pp(flowrec.ProtoTCP, 22), "SSH", CatSSH},
	{pp(flowrec.ProtoTCP, 1494), "Citrix-ICA", CatRemoteDesk},
	{pp(flowrec.ProtoUDP, 1494), "Citrix-ICA-UDP", CatRemoteDesk},
	{pp(flowrec.ProtoTCP, 3389), "RDP", CatRemoteDesk},
	{pp(flowrec.ProtoTCP, 5938), "TeamViewer", CatRemoteDesk},
	{pp(flowrec.ProtoUDP, 5938), "TeamViewer-UDP", CatRemoteDesk},

	// Gaming (a representative subset of the 57 gaming ports of Table 1).
	{pp(flowrec.ProtoUDP, 3074), "Xbox-Live", CatGaming},
	{pp(flowrec.ProtoTCP, 3074), "Xbox-Live-TCP", CatGaming},
	{pp(flowrec.ProtoUDP, 3659), "EA-games", CatGaming},
	{pp(flowrec.ProtoUDP, 5060), "Game-voice", CatGaming},
	{pp(flowrec.ProtoUDP, 27015), "Steam", CatGaming},
	{pp(flowrec.ProtoTCP, 27015), "Steam-TCP", CatGaming},
	{pp(flowrec.ProtoUDP, 3478), "PSN-STUN", CatGaming}, // shared with STUN; the first entry wins
	{pp(flowrec.ProtoUDP, 5222), "Riot-chat", CatGaming},
	{pp(flowrec.ProtoTCP, 5222), "XMPP-client", CatGaming},
	{pp(flowrec.ProtoUDP, 8393), "PUBG", CatGaming},
	{pp(flowrec.ProtoUDP, 30000), "Cloud-gaming", CatGaming},
}

var byPort map[flowrec.PortProto]Service

func init() {
	byPort = make(map[flowrec.PortProto]Service, len(registry))
	for _, s := range registry {
		if _, dup := byPort[s.Port]; dup {
			continue // first registration wins (e.g. UDP/3478)
		}
		byPort[s.Port] = s
	}
}

// Name returns the registered service name or the "TCP/443"-style rendering
// for unknown ports.
func Name(p flowrec.PortProto) string {
	if s, ok := byPort[p]; ok {
		return s.Name
	}
	return p.String()
}

// OfCategory returns all registered ports of the given category, sorted by
// protocol and port number for deterministic iteration.
func OfCategory(c Category) []flowrec.PortProto {
	var out []flowrec.PortProto
	for p, s := range byPort {
		if s.Category == c {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proto != out[j].Proto {
			return out[i].Proto < out[j].Proto
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// VPNPorts returns the well-known VPN port/protocol pairs of Section 6
// (IPsec, OpenVPN, L2TP, PPTP on both transports, plus GRE and ESP).
func VPNPorts() []flowrec.PortProto { return OfCategory(CatVPN) }

// TopPortsISP returns the "top 3-12" ports of the ISP-CE analysis in
// Figure 7a (TCP/80 and TCP/443 are intentionally excluded, as in the
// paper).
func TopPortsISP() []flowrec.PortProto {
	return []flowrec.PortProto{
		pp(flowrec.ProtoUDP, 443),
		pp(flowrec.ProtoUDP, 4500),
		pp(flowrec.ProtoTCP, 8080),
		pp(flowrec.ProtoGRE, 0),
		pp(flowrec.ProtoUDP, 1194),
		pp(flowrec.ProtoTCP, 993),
		pp(flowrec.ProtoUDP, 8801),
		pp(flowrec.ProtoUDP, 2408),
		pp(flowrec.ProtoTCP, 8200),
		pp(flowrec.ProtoTCP, 25461),
	}
}

// TopPortsIXP returns the "top 3-12" ports of the IXP-CE analysis in
// Figure 7b.
func TopPortsIXP() []flowrec.PortProto {
	return []flowrec.PortProto{
		pp(flowrec.ProtoUDP, 443),
		pp(flowrec.ProtoUDP, 4500),
		pp(flowrec.ProtoTCP, 8080),
		pp(flowrec.ProtoESP, 0),
		pp(flowrec.ProtoTCP, 8200),
		pp(flowrec.ProtoGRE, 0),
		pp(flowrec.ProtoTCP, 25461),
		pp(flowrec.ProtoUDP, 2408),
		pp(flowrec.ProtoUDP, 1194),
		pp(flowrec.ProtoUDP, 3480),
		pp(flowrec.ProtoTCP, 993),
		pp(flowrec.ProtoUDP, 8801),
	}
}
