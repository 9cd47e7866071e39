package report

import (
	"io"
	"strings"

	"lockdown/internal/obs"
)

// WriteEvents renders structured run events as the human stderr summary.
// Every accounting line the CLI prints after a run — the dataset-cache
// totals, the flow-batch tier activity, wire bridge/pump stats, cluster
// shard status, rebalances and chaos relay counts — flows through here
// from one []obs.Event that is also Emit'd to the tracer, so the
// terminal and the trace file can never disagree.
//
// Rendering: "<msg>: <val> <key>, <val> <key>, ..." per event; a field
// with an empty key prints its value alone, a field with an empty value
// prints its key alone. Sub events indent two spaces under the previous
// headline.
func WriteEvents(w io.Writer, events []obs.Event) error {
	var b strings.Builder
	for _, e := range events {
		b.Reset()
		if e.Sub {
			b.WriteString("  ")
		}
		b.WriteString(e.Msg)
		if len(e.Fields) > 0 {
			b.WriteString(": ")
			for i, f := range e.Fields {
				if i > 0 {
					b.WriteString(", ")
				}
				switch {
				case f.Key == "":
					b.WriteString(f.Val)
				case f.Val == "":
					b.WriteString(f.Key)
				default:
					b.WriteString(f.Val)
					b.WriteByte(' ')
					b.WriteString(f.Key)
				}
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
