package obs

import "strconv"

// Event is one structured run event: what the CLI's reporter renders to
// stderr and what the tracer records as an instant, so the human summary
// and the trace file are two views of the same value. The engine's cache
// summary, the bridge wire accounting, cluster shard/rebalance lines and
// chaos relay counts are all Events — one renderer (report.WriteEvents)
// replaces the per-command fmt.Fprintf blocks that used to drift apart.
type Event struct {
	// Cat groups events ("cache", "bridge", "cluster", "chaos"); the
	// tracer uses it as the instant's category.
	Cat string
	// Msg is the short human headline ("dataset cache", "rebalance").
	Msg string
	// Fields are ordered key=value details; order is presentation order.
	Fields []Field
	// Sub marks a detail line the reporter indents under the preceding
	// headline event (per-shard accounting under the bridge totals).
	Sub bool
}

// Field is one ordered key/value pair of an Event.
type Field struct {
	Key string
	Val string
}

// F builds a string field.
func F(key, val string) Field { return Field{Key: key, Val: val} }

// Fi builds an integer field.
func Fi(key string, v int64) Field { return Field{Key: key, Val: strconv.FormatInt(v, 10)} }

// Emit records the event as an instant in the trace (no-op on a nil
// tracer). The reporter renders the same Event to the terminal, so the
// two sinks cannot disagree.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	args := make(map[string]any, len(e.Fields))
	for _, f := range e.Fields {
		k := f.Key
		if k == "" {
			// A key-less field is pure presentation text; the trace still
			// needs a map key for it.
			k = "detail"
		}
		args[k] = f.Val
	}
	t.Instant(e.Msg, e.Cat, args)
}
