package edu

import (
	"time"

	"lockdown/internal/appclass"
	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
)

// countConnectionsRef is the per-row oracle of CountConnections: each
// row's Appendix B class from appclass.ClassifyEDUAt, counted under its
// day and direction.
func countConnectionsRef(byDay map[time.Time]*flowrec.Batch) DailyCounts {
	out := make(DailyCounts, len(byDay))
	for day, b := range byDay {
		counts := make(map[appclass.EDUClass]map[flowrec.Direction]int)
		for i := 0; i < b.Len(); i++ {
			cls := appclass.ClassifyEDUAt(b, i)
			if counts[cls] == nil {
				counts[cls] = make(map[flowrec.Direction]int)
			}
			counts[cls][b.Dir[i]]++
		}
		out[calendar.DayStart(day)] = counts
	}
	return out
}
