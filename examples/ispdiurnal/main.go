// ispdiurnal studies how the ISP-CE's diurnal pattern shifted with the
// lockdown: it prints the hourly profile of a pre-lockdown workday, a
// weekend day and a lockdown workday (Figure 2a) and then classifies every
// day of the study window as workday-like or weekend-like (Figures 2b/2c).
//
//	go run ./examples/ispdiurnal
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/patterns"
	"lockdown/internal/report"
	"lockdown/internal/synth"
)

func main() {
	g, err := synth.NewDefault(synth.ISPCE)
	if err != nil {
		log.Fatal(err)
	}

	days := []struct {
		label string
		day   time.Time
	}{
		{"Wed Feb 19 (pre-lockdown workday)", time.Date(2020, 2, 19, 0, 0, 0, 0, time.UTC)},
		{"Sat Feb 22 (weekend)", time.Date(2020, 2, 22, 0, 0, 0, 0, time.UTC)},
		{"Wed Mar 25 (lockdown workday)", time.Date(2020, 3, 25, 0, 0, 0, 0, time.UTC)},
	}
	for _, d := range days {
		s := g.TotalSeries(d.day, d.day.AddDate(0, 0, 1)).NormalizeByMax()
		var labels []string
		var values []float64
		for h := 0; h < 24; h += 2 {
			labels = append(labels, fmt.Sprintf("%02d:00", h))
			values = append(values, s.Values()[h])
		}
		if err := report.Chart(os.Stdout, d.label, labels, values, 40); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	// Train the pattern classifier on February and classify the study
	// window, exactly as Section 1 describes.
	hourly := g.TotalSeries(calendar.StudyStart, time.Date(2020, 5, 12, 0, 0, 0, 0, time.UTC))
	clf, err := patterns.Train(hourly,
		time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC),
		patterns.DefaultBinHours)
	if err != nil {
		log.Fatal(err)
	}
	results := clf.ClassifyRange(hourly, calendar.StudyStart, time.Date(2020, 5, 12, 0, 0, 0, 0, time.UTC))
	fmt.Println("per-week classification of actual workdays:")
	for _, s := range patterns.Summarize(results) {
		fmt.Printf("  week %2d: %d of %d workdays look like weekends\n", s.Week, s.WorkdaysWeekendLike, s.Workdays)
	}
}
