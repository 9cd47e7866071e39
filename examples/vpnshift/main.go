// vpnshift reproduces the Section 6 workflow end to end: build a DNS
// corpus, derive the *vpn* candidate addresses, generate IXP-CE flows for a
// pre-lockdown and a lockdown week, and compare how much VPN traffic the
// port-based and the domain-based classifiers identify.
//
//	go run ./examples/vpnshift
package main

import (
	"fmt"
	"log"

	"lockdown/internal/calendar"
	"lockdown/internal/dnsdb"
	"lockdown/internal/synth"
	"lockdown/internal/vpndetect"
)

func main() {
	cfg := synth.DefaultConfig(synth.IXPCE)
	cfg.FlowScale = 0.3 // keep the example quick
	g, err := synth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Build the synthetic domain corpus and derive the VPN candidates.
	corpus, gateways := dnsdb.Generate(g.Registry(), dnsdb.DefaultGenerateOptions())
	g.SetVPNGateways(gateways)
	det := vpndetect.NewFromCorpus(corpus)
	fmt.Printf("corpus: %d names, %d VPN candidate addresses\n\n", corpus.Len(), det.Candidates())

	weeks := calendar.AppWeeksIXP()[:2] // base week and March week
	for _, week := range weeks {
		var sums [3]uint64 // indexed by vpndetect.Method
		for _, hour := range week.Hours() {
			if !calendar.WorkingHours(hour.Hour()) || calendar.IsWeekend(hour) {
				continue
			}
			det.SplitBatchSums(&sums, g.FlowsForHourBatch(hour))
		}
		fmt.Printf("%-8s working hours: port-identified %6.1f TB, domain-identified %6.1f TB\n",
			week.Label, float64(sums[vpndetect.ByPort])/1e12, float64(sums[vpndetect.ByDomain])/1e12)
	}
	fmt.Println("\nThe port-identified share barely moves while the domain-identified share")
	fmt.Println("surges — identifying VPNs by well-known ports alone vastly undercounts them.")
}
