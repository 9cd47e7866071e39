package flowstore

import (
	"sync/atomic"

	"lockdown/internal/obs"
)

// The store's instruments are package-level and live behind one atomic
// pointer so the uninstrumented hot path — every spill and fault under
// a cache budget — pays a single pointer load and nil check, and
// Instrument can be called at any time, including while spans are being
// appended.
type storeMetrics struct {
	writes     *obs.Counter
	writeBytes *obs.Counter
	openFails  *obs.Counter
	spanFaults *obs.Counter
}

var metricsPtr atomic.Pointer[storeMetrics]

// Instrument registers the store's counters with reg and starts feeding
// them. Passing nil detaches the previous registry.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		metricsPtr.Store(nil)
		return
	}
	metricsPtr.Store(&storeMetrics{
		writes: reg.Counter("lockdown_flowstore_writes_total",
			"Spans appended to span files (cache spills)."),
		writeBytes: reg.Counter("lockdown_flowstore_write_bytes_total",
			"Total bytes written to span files: spans, and the index and header of each sealed file."),
		openFails: reg.Counter("lockdown_flowstore_open_failures_total",
			"Span files and spans rejected by validation (unsealed, truncation, bad checksums)."),
		spanFaults: reg.Counter("lockdown_flowstore_span_faults_total",
			"Spans mapped, checksummed and served."),
	})
}
