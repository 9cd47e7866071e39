package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one # HELP
// and # TYPE line each, series sorted by label value, histograms expanded
// into cumulative _bucket{le=...} series plus _sum and _count. The output
// is deterministic for a given registry state, which the golden test
// pins. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.families() {
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		sort.Slice(series, func(i, j int) bool { return series[i].labelVal < series[j].labelVal })

		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')

		for _, s := range series {
			switch {
			case s.hist != nil:
				writeHistogram(bw, f, s)
			case s.fn != nil:
				writeSample(bw, f.name, f.label, s.labelVal, "", formatFloat(s.fn()))
			case s.counter != nil:
				writeSample(bw, f.name, f.label, s.labelVal, "", strconv.FormatInt(s.counter.Value(), 10))
			}
		}
	}
	return bw.Flush()
}

// writeHistogram expands one histogram series into its cumulative bucket,
// sum and count samples.
func writeHistogram(bw *bufio.Writer, f *family, s *series) {
	cum := s.hist.snapshot()
	for i, bound := range s.hist.bounds {
		writeSample(bw, f.name+"_bucket", f.label, s.labelVal,
			`le="`+formatFloat(bound)+`"`, strconv.FormatInt(cum[i], 10))
	}
	writeSample(bw, f.name+"_bucket", f.label, s.labelVal, `le="+Inf"`,
		strconv.FormatInt(cum[len(cum)-1], 10))
	writeSample(bw, f.name+"_sum", f.label, s.labelVal, "", formatFloat(s.hist.Sum()))
	writeSample(bw, f.name+"_count", f.label, s.labelVal, "", strconv.FormatInt(s.hist.Count(), 10))
}

// writeSample writes one `name{labels} value` line. label/labelVal is the
// family's single dynamic label (absent when the family is unlabelled);
// extra is a pre-rendered additional pair (the histogram `le`).
func writeSample(bw *bufio.Writer, name, label, labelVal, extra, value string) {
	bw.WriteString(name)
	if label != "" || extra != "" {
		bw.WriteByte('{')
		if label != "" {
			bw.WriteString(label)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(labelVal))
			bw.WriteByte('"')
			if extra != "" {
				bw.WriteByte(',')
			}
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
