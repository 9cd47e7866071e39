package core

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lockdown/internal/calendar"
	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
	"lockdown/internal/timeseries"
)

// Dataset is the memoized input layer of an engine. Every input an
// experiment can consume — generators, VPN-detection datasets, hourly
// volume series and per-hour flow samples — is produced at most once per
// key and shared across experiments. Keys incorporate the generator
// fingerprint (vantage point, seed, flow scale), so one Dataset serves
// exactly one Options value.
//
// Flow batches (FlowBatch, VPNFlowBatch, ComponentFlowBatch) are drawn
// from the dataset's FlowSource: by default the in-process synthetic
// generator, or — via NewDatasetWithSource — any other implementation,
// e.g. the wire-replay bridge that serves the same batches off live
// NetFlow/IPFIX export. Volume series always come from the local
// generator model; only the flow-record path is sourced.
//
// Flow-batch entries form a tiered cache. With Options.CacheBudget unset
// every batch stays resident, exactly as before the storage layer
// existed. With a budget, the least-recently-used unpinned batches are
// spilled to columnar segment files (package flowstore) once the
// resident estimate exceeds the budget, and faulted back in — via a
// read-only mmap view, no decode for the numeric columns — on their next
// access. Entries touched by a running experiment are pinned through its
// Env and never evicted mid-scan. A damaged segment (truncation, bit
// flips) is detected by its checksums and the batch is regenerated from
// the flow source instead; spilling is an optimisation, never a new
// failure mode. Batches are identical bit for bit whether they were
// generated, faulted in, or regenerated, so every metric of the suite is
// byte-identical at any budget.
//
// Concurrency model: a per-key entry is installed under a short mutex, and
// the expensive generation runs inside the entry's sync.Once, so
// concurrent consumers of the same key block only on that key while other
// keys generate in parallel; spill state transitions are serialised by a
// per-entry mutex. Cached values are immutable by convention: callers
// must not modify returned slices or call mutating methods (e.g.
// synth.Generator.SetVPNGateways) on shared instances. Batches handed out
// remain valid even if the entry is evicted afterwards (segments stay
// mapped until Close), so an unpinned caller is never left with a
// dangling view.
type Dataset struct {
	opts   Options
	src    FlowSource
	tracer *obs.Tracer

	mu      sync.Mutex
	entries map[string]*cacheEntry
	models  map[synth.VantagePoint]*vpModel
	flows   []*flowEntry // installed flow entries, for the compaction scan

	// Cache instruments. These are the single source of truth for both
	// CacheStats and the lockdown_cache_* metric families: Stats() reads
	// the same counters a /metrics scrape does, so the stderr summary
	// and the exposition can never disagree. With Options.Obs unset the
	// counters are standalone atomics — same cost, nothing exported.
	hits   *obs.Counter
	misses *obs.Counter

	// Spill tier (flow-batch entries only).
	budget int64
	spills *obs.Counter
	faults *obs.Counter
	regens *obs.Counter
	pinned atomic.Int64 // entries with at least one live pin

	lmu      sync.Mutex // guards the fields below; acquired after an entry's mu
	lru      *list.List // *flowEntry; front = most recently used
	resident int64      // heap-byte estimate of resident flow batches
	spilled  int64      // bytes of live segment files
	segFiles int        // standalone segment files eligible for compaction
	dir      string     // spill directory, created on first spill
	dirMade  bool
	dirErr   error
	seq      int // segment file counter
	closed   bool

	// Compacted tier: opened spanned files, shared by every entry whose
	// segment was merged into them. compactBusy serialises compaction
	// without blocking the access path.
	spmu        sync.Mutex
	spanned     map[string]*flowstore.SpannedFile
	compactBusy atomic.Bool
}

// Online segment compaction: once compactMin standalone segment files
// have accumulated, the next flow-batch access merges up to compactMax
// of them into one spanned file (package flowstore) and deletes the
// sources. Compacted entries fault through SpannedFile.Span — one open
// and one header/index validation per spanned file instead of one full
// open + data-CRC pass per hour — which is what cuts the
// lockdown_flowstore_opens_total count on budgeted month-walk scans.
// compactMax bounds the assembly buffer of one compaction (the spanned
// file is built in memory, like every segment write).
const (
	compactMin = 16
	compactMax = 64
)

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// flowEntry is the spillable cache slot of one flow batch. It lives in
// the entries map behind the per-key sync.Once like every other value;
// the extra machinery tracks which tier the batch currently occupies:
//
//	resident ──evict (spill on first time)──▶ spilled
//	resident ◀──────fault (mmap view)─────── spilled
//
// The entry's mutex serialises tier transitions; pins (atomic, bumped
// under mu) keep it resident while experiments scan it.
type flowEntry struct {
	key   string
	build func() (*flowrec.Batch, error)

	mu        sync.Mutex
	pins      atomic.Int32
	batch     *flowrec.Batch // nil while spilled
	heapBytes int64          // resident heap estimate of batch
	seg       *flowstore.Segment
	path      string // standalone segment file; "" until first spill or after compaction
	segSize   int64
	spanPath  string // spanned file holding this entry's segment image; "" if none
	spanIdx   int    // span index within spanPath

	elem *list.Element // LRU position, guarded by Dataset.lmu; nil if unlinked
}

// NewDataset returns an empty dataset cache for the given options, backed
// by the in-process synthetic generator.
func NewDataset(opts Options) *Dataset {
	return NewDatasetWithSource(opts, nil)
}

// NewDatasetWithSource returns an empty dataset cache whose flow batches
// are drawn from src (nil selects the synthetic generator). The source
// must produce batches bit-identical to the generator at the same options
// for the suite's determinism guarantees to hold; the replay bridge
// verifies this per batch.
func NewDatasetWithSource(opts Options, src FlowSource) *Dataset {
	reg := opts.Obs
	d := &Dataset{
		opts:    opts,
		tracer:  opts.Tracer,
		entries: make(map[string]*cacheEntry),
		models:  make(map[synth.VantagePoint]*vpModel),
		budget:  opts.CacheBudget,
		lru:     list.New(),
		hits:    reg.Counter("lockdown_cache_hits_total", "Dataset cache key lookups that found an entry."),
		misses:  reg.Counter("lockdown_cache_misses_total", "Dataset cache key lookups that installed a new entry."),
		spills:  reg.Counter("lockdown_cache_spills_total", "Flow batches written to a columnar segment file on eviction."),
		faults:  reg.Counter("lockdown_cache_faults_total", "Spilled flow batches mapped back in for an access."),
		regens:  reg.Counter("lockdown_cache_regens_total", "Faults that found a damaged segment and rebuilt from the flow source."),
	}
	if src == nil {
		src = datasetSource{d}
	}
	d.src = src
	// Tier occupancy as scrape-time snapshots of the same fields Stats()
	// copies. Registration is get-or-create by name, so with several
	// datasets on one registry (tests) the first one's snapshot wins;
	// the CLI runs exactly one dataset per process.
	reg.GaugeFunc("lockdown_cache_entries", "Memoized dataset cache keys (generators, series, flow batches).",
		func() float64 { return float64(d.Stats().Entries) })
	reg.GaugeFunc("lockdown_cache_resident_bytes", "Estimated heap held by resident flow batches.",
		func() float64 { return float64(d.Stats().ResidentBytes) })
	reg.GaugeFunc("lockdown_cache_spilled_bytes", "Total size of live segment files on disk.",
		func() float64 { return float64(d.Stats().SpilledBytes) })
	reg.GaugeFunc("lockdown_cache_pinned", "Flow-batch entries currently pinned by a running experiment or scan chunk.",
		func() float64 { return float64(d.Stats().Pinned) })
	if reg != nil {
		flowstore.Instrument(reg)
	}
	return d
}

// entry installs (counting a miss) or finds (counting a hit) the cache
// slot of a key under the short map mutex.
func (d *Dataset) entry(key string) *cacheEntry {
	d.mu.Lock()
	e, ok := d.entries[key]
	if !ok {
		e = &cacheEntry{}
		d.entries[key] = e
		d.misses.Add(1)
	} else {
		d.hits.Add(1)
	}
	d.mu.Unlock()
	return e
}

// get memoizes build under key with a per-key once.
func (d *Dataset) get(key string, build func() (any, error)) (any, error) {
	e := d.entry(key)
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// getFlow is get for spillable flow batches: the first access generates
// the batch inside the per-key once; later accesses return the resident
// batch or fault it back in from its segment. pin (optional) keeps the
// entry resident until the pin is released.
func (d *Dataset) getFlow(key string, pin *Pin, build func() (*flowrec.Batch, error)) (*flowrec.Batch, error) {
	e := d.entry(key)
	e.once.Do(func() {
		b, err := build()
		if err != nil {
			e.err = err
			return
		}
		fe := &flowEntry{key: key, build: build, batch: b, heapBytes: b.HeapBytes()}
		e.val = fe
		d.link(fe, fe.heapBytes)
		// Register for the compaction scan: compactOnce must not read
		// e.val, which this once is still writing.
		d.mu.Lock()
		d.flows = append(d.flows, fe)
		d.mu.Unlock()
	})
	if e.err != nil {
		return nil, e.err
	}
	b, err := d.acquire(e.val.(*flowEntry), pin)
	if err != nil {
		return nil, err
	}
	d.enforceBudget()
	d.maybeCompact()
	return b, nil
}

// acquire returns the entry's batch, faulting it back in if it is
// spilled, and registers the pin. The returned batch stays valid even if
// the entry is evicted afterwards.
func (d *Dataset) acquire(fe *flowEntry, pin *Pin) (*flowrec.Batch, error) {
	fe.mu.Lock()
	if fe.batch == nil {
		sp := d.tracer.Start("cache-fault", "cache")
		b, heap, err := d.faultIn(fe)
		if err != nil {
			fe.mu.Unlock()
			return nil, err
		}
		if sp.Active() {
			sp.EndArgs(map[string]any{"key": fe.key, "bytes": heap})
		}
		fe.batch, fe.heapBytes = b, heap
		d.faults.Add(1)
		d.link(fe, heap)
	} else {
		d.touch(fe)
	}
	b := fe.batch
	if pin != nil {
		pin.add(fe)
	}
	fe.mu.Unlock()
	return b, nil
}

// faultIn rebuilds the entry's batch, called with fe.mu held. The happy
// path serves the entry's span (after compaction) or opens (once) and
// views its standalone segment; storage that fails its checksums or
// cannot be mapped is dropped and the batch is regenerated from the
// flow source — the cache never propagates storage corruption as an
// error or a panic. A damaged span only degrades its own entry; the
// other spans of the file keep serving.
func (d *Dataset) faultIn(fe *flowEntry) (*flowrec.Batch, int64, error) {
	if fe.seg == nil && fe.spanPath != "" {
		seg, err := d.spanSegment(fe.spanPath, fe.spanIdx)
		if err != nil {
			d.dropSpan(fe)
		} else {
			fe.seg = seg
		}
	}
	if fe.seg == nil && fe.path != "" {
		seg, err := flowstore.Open(fe.path)
		if err != nil {
			d.dropSegment(fe)
		} else {
			fe.seg = seg
		}
	}
	if fe.seg != nil {
		b, heap, err := fe.seg.Batch()
		if err == nil {
			return b, heap, nil
		}
		fe.seg.Close()
		fe.seg = nil
		if fe.spanPath != "" {
			d.dropSpan(fe)
		} else if fe.path != "" {
			d.dropSegment(fe)
		}
	}
	b, err := fe.build()
	if err != nil {
		return nil, 0, err
	}
	return b, b.HeapBytes(), nil
}

// spanSegment opens (memoized per path) the spanned file and faults one
// span out of it. Called with an entry's mu held; takes only spmu.
func (d *Dataset) spanSegment(path string, idx int) (*flowstore.Segment, error) {
	d.spmu.Lock()
	sf := d.spanned[path]
	if sf == nil {
		var err error
		sf, err = flowstore.OpenSpanned(path)
		if err != nil {
			d.spmu.Unlock()
			return nil, err
		}
		if d.spanned == nil {
			d.spanned = make(map[string]*flowstore.SpannedFile)
		}
		d.spanned[path] = sf
	}
	d.spmu.Unlock()
	return sf.Span(idx)
}

// dropSpan forgets a damaged (or unopenable) span so the next eviction
// spills a fresh standalone segment, and counts the regeneration. The
// spanned file itself stays: its other spans are independently
// checksummed and may be fine.
func (d *Dataset) dropSpan(fe *flowEntry) {
	fe.spanPath = ""
	d.regens.Add(1)
	if d.tracer != nil {
		d.tracer.Instant("cache-regen", "cache", map[string]any{"key": fe.key})
	}
	d.lmu.Lock()
	d.spilled -= fe.segSize
	d.lmu.Unlock()
	fe.segSize = 0
}

// dropSegment forgets a damaged segment file so the next eviction spills
// a fresh one, and counts the regeneration.
func (d *Dataset) dropSegment(fe *flowEntry) {
	os.Remove(fe.path)
	fe.path = ""
	d.regens.Add(1)
	if d.tracer != nil {
		d.tracer.Instant("cache-regen", "cache", map[string]any{"key": fe.key})
	}
	d.lmu.Lock()
	d.spilled -= fe.segSize
	d.segFiles--
	d.lmu.Unlock()
	fe.segSize = 0
}

// link adds heap bytes for an entry that just became resident and moves
// it to the LRU front. Called with fe.mu held (or from inside the
// generating once, where the entry is not yet visible to eviction).
func (d *Dataset) link(fe *flowEntry, heap int64) {
	d.lmu.Lock()
	d.resident += heap
	if fe.elem == nil {
		fe.elem = d.lru.PushFront(fe)
	} else {
		d.lru.MoveToFront(fe.elem)
	}
	d.lmu.Unlock()
}

// touch moves a resident entry to the LRU front.
func (d *Dataset) touch(fe *flowEntry) {
	d.lmu.Lock()
	if fe.elem != nil {
		d.lru.MoveToFront(fe.elem)
	}
	d.lmu.Unlock()
}

// relink restores an entry the eviction scan had unlinked but could not
// evict (it was pinned, or its spill failed). Called with fe.mu held.
func (d *Dataset) relink(fe *flowEntry) {
	d.lmu.Lock()
	if fe.elem == nil {
		fe.elem = d.lru.PushFront(fe)
	}
	d.lmu.Unlock()
}

// enforceBudget evicts least-recently-used unpinned flow batches until
// the resident estimate fits the budget (0 = unlimited; spilling
// disabled). Pinned entries are skipped, so the budget is a target the
// cache converges to as pins release, not a hard cap during a scan.
func (d *Dataset) enforceBudget() {
	if d.budget <= 0 {
		return
	}
	for {
		d.lmu.Lock()
		if d.resident <= d.budget || d.closed {
			d.lmu.Unlock()
			return
		}
		var fe *flowEntry
		for el := d.lru.Back(); el != nil; el = el.Prev() {
			cand := el.Value.(*flowEntry)
			if cand.pins.Load() == 0 {
				fe = cand
				break
			}
		}
		if fe == nil { // everything resident is pinned
			d.lmu.Unlock()
			return
		}
		d.lru.Remove(fe.elem)
		fe.elem = nil
		d.lmu.Unlock()
		if !d.evict(fe) {
			return
		}
	}
}

// evict spills one entry (first eviction writes the segment; later ones
// reuse it) and drops its resident batch. Returns false when the spill
// failed and eviction should stop instead of spinning on the same entry.
func (d *Dataset) evict(fe *flowEntry) bool {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.batch == nil { // already evicted by a racing call
		return true
	}
	if fe.pins.Load() != 0 { // pinned between the scan and here
		d.relink(fe)
		return true
	}
	if fe.path == "" && fe.spanPath == "" {
		sp := d.tracer.Start("cache-spill", "cache")
		path, err := d.spillPath("seg-%06d.lfs")
		var size int64
		if err == nil {
			size, err = flowstore.Write(path, fe.batch)
			if err == nil {
				fe.path, fe.segSize = path, size
				d.spills.Add(1)
				d.lmu.Lock()
				d.spilled += size
				d.segFiles++
				d.lmu.Unlock()
			}
		}
		if sp.Active() {
			sp.EndArgs(map[string]any{"key": fe.key, "bytes": size})
		}
		if err != nil {
			// Cannot spill (disk full, unwritable dir, zoned address):
			// keep the batch resident rather than losing it.
			d.relink(fe)
			return false
		}
	}
	fe.batch = nil
	d.lmu.Lock()
	d.resident -= fe.heapBytes
	d.lmu.Unlock()
	fe.heapBytes = 0
	if fe.seg != nil {
		if fe.seg.Mapped() {
			fe.seg.Evicted() // hint the OS to reclaim the mapped pages
		} else {
			// Heap-fallback segment (non-linux, or mmap failed): the
			// whole file lives in a heap buffer the Segment holds, so
			// keeping it open would defeat the eviction. Close drops
			// the cache's reference — views already handed out keep
			// the buffer alive through their aliasing slices — and the
			// next fault re-opens (and re-verifies) the file.
			fe.seg.Close()
			fe.seg = nil
		}
	}
	return true
}

// spillPath names the next spill file from a sequence-number pattern,
// creating the spill directory on first use: a private temp dir under
// Options.CacheDir (or the OS temp dir), removed by Close.
func (d *Dataset) spillPath(pattern string) (string, error) {
	d.lmu.Lock()
	defer d.lmu.Unlock()
	if !d.dirMade {
		d.dirMade = true
		base := d.opts.CacheDir
		if base != "" {
			if err := os.MkdirAll(base, 0o755); err != nil {
				d.dirErr = err
			}
		}
		if d.dirErr == nil {
			d.dir, d.dirErr = os.MkdirTemp(base, "lockdown-flowstore-")
		}
	}
	if d.dirErr != nil {
		return "", d.dirErr
	}
	if d.closed {
		return "", fmt.Errorf("core: dataset is closed")
	}
	d.seq++
	return filepath.Join(d.dir, fmt.Sprintf(pattern, d.seq)), nil
}

// maybeCompact runs one compaction pass when enough standalone segment
// files have accumulated. The CAS makes it single-flight: concurrent
// accessors skip instead of queueing, so the access path never stalls
// behind more than one compaction.
func (d *Dataset) maybeCompact() {
	if d.budget <= 0 {
		return
	}
	d.lmu.Lock()
	n, closed := d.segFiles, d.closed
	d.lmu.Unlock()
	if closed || n < compactMin {
		return
	}
	if !d.compactBusy.CompareAndSwap(false, true) {
		return
	}
	defer d.compactBusy.Store(false)
	d.compactOnce()
}

// compactOnce merges up to compactMax standalone segments into one
// spanned file and repoints their entries at it. It takes no entry lock
// across the file I/O: candidates are snapshotted, the spanned file is
// written from the on-disk paths, and each entry is repointed only if
// its path is still the one that was compacted (a concurrent
// dropSegment loses nothing — its source file is already gone and
// WriteSpanned skipped it).
func (d *Dataset) compactOnce() {
	d.mu.Lock()
	fes := make([]*flowEntry, len(d.flows))
	copy(fes, d.flows)
	d.mu.Unlock()

	type cand struct {
		fe   *flowEntry
		path string
	}
	var cands []cand
	for _, fe := range fes {
		fe.mu.Lock()
		if fe.path != "" && fe.spanPath == "" {
			cands = append(cands, cand{fe, fe.path})
		}
		fe.mu.Unlock()
		if len(cands) == compactMax {
			break
		}
	}
	if len(cands) < compactMin {
		return
	}
	out, err := d.spillPath("span-%06d.lfss")
	if err != nil {
		return
	}
	srcs := make([]string, len(cands))
	for i, c := range cands {
		srcs[i] = c.path
	}
	sp := d.tracer.Start("cache-compact", "cache")
	res, err := flowstore.WriteSpanned(out, srcs)
	if err != nil {
		if sp.Active() {
			sp.EndArgs(map[string]any{"error": err.Error()})
		}
		return
	}
	moved := 0
	for k, s := range res.Sources {
		if s.Span < 0 {
			continue
		}
		fe := cands[k].fe
		fe.mu.Lock()
		if fe.path == cands[k].path {
			fe.path = ""
			fe.spanPath, fe.spanIdx = out, s.Span
			moved++
			os.Remove(cands[k].path)
			d.lmu.Lock()
			d.segFiles--
			d.lmu.Unlock()
		}
		fe.mu.Unlock()
	}
	if sp.Active() {
		sp.EndArgs(map[string]any{"spans": res.Spans, "moved": moved, "bytes": res.Size})
	}
	if moved == 0 {
		// Every candidate was repointed or dropped while we wrote: the
		// spanned file has no users.
		os.Remove(out)
	}
}

// Close releases every mapped segment and removes the spill directory.
// It must only be called once no experiment is running and no returned
// batch is in use; the CLI defers it around a whole run. Close is
// idempotent. A dataset keeps working after Close — subsequent accesses
// regenerate from the source — but it no longer spills.
func (d *Dataset) Close() error {
	d.mu.Lock()
	fes := make([]*flowEntry, 0, len(d.entries))
	for _, e := range d.entries {
		if fe, ok := e.val.(*flowEntry); ok {
			fes = append(fes, fe)
		}
	}
	d.mu.Unlock()
	var firstErr error
	for _, fe := range fes {
		fe.mu.Lock()
		if fe.seg != nil {
			if err := fe.seg.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			fe.seg = nil
			// The view batch aliased the mapping; drop it so a later
			// access regenerates instead of reading unmapped memory.
			if fe.batch != nil && fe.batch.IsView() {
				fe.batch = nil
				d.lmu.Lock()
				d.resident -= fe.heapBytes
				d.lmu.Unlock()
				fe.heapBytes = 0
			}
		}
		fe.path, fe.segSize = "", 0
		fe.spanPath = ""
		fe.mu.Unlock()
	}
	d.spmu.Lock()
	for _, sf := range d.spanned {
		if err := sf.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.spanned = nil
	d.spmu.Unlock()
	d.lmu.Lock()
	dir := d.dir
	d.dir, d.dirMade, d.dirErr = "", true, fmt.Errorf("core: dataset is closed")
	d.spilled = 0
	d.segFiles = 0
	d.closed = true
	d.lmu.Unlock()
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns the cache's entry, hit/miss and spill-tier counters.
func (d *Dataset) Stats() CacheStats {
	d.mu.Lock()
	n := len(d.entries)
	d.mu.Unlock()
	d.lmu.Lock()
	res, sp := d.resident, d.spilled
	d.lmu.Unlock()
	return CacheStats{
		Entries:       n,
		Hits:          d.hits.Value(),
		Misses:        d.misses.Value(),
		Spills:        d.spills.Value(),
		Faults:        d.faults.Value(),
		Regens:        d.regens.Value(),
		ResidentBytes: res,
		SpilledBytes:  sp,
		Pinned:        int(d.pinned.Load()),
	}
}

// DegradedKeys lists the component-hours the dataset's flow source
// served as explicitly-degraded empty batches (see DegradationReporter);
// nil when the source reports none or cannot degrade at all. The default
// synthetic source never degrades.
func (d *Dataset) DegradedKeys() []string {
	if r, ok := d.src.(DegradationReporter); ok {
		return r.DegradedKeys()
	}
	return nil
}

// Pin keeps the flow-batch entries an experiment touches resident until
// Release. The engine creates one per experiment run; every batch drawn
// through the Env's accessors is pinned for the experiment's whole
// lifetime, so a scan can revisit its hours without fault-in churn and
// eviction never races a reader. A Pin is used by one goroutine (the
// experiment's); it is not safe for concurrent use.
type Pin struct {
	d       *Dataset
	entries []*flowEntry
	seen    map[*flowEntry]struct{}
}

// NewPin returns an empty pin.
func (d *Dataset) NewPin() *Pin { return &Pin{d: d} }

// add registers the entry, called with fe.mu held.
func (p *Pin) add(fe *flowEntry) {
	if _, ok := p.seen[fe]; ok {
		return
	}
	if p.seen == nil {
		p.seen = make(map[*flowEntry]struct{})
	}
	p.seen[fe] = struct{}{}
	p.entries = append(p.entries, fe)
	if fe.pins.Add(1) == 1 {
		p.d.pinned.Add(1)
	}
}

// FlowBatch is Dataset.FlowBatch with the result pinned.
func (p *Pin) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return p.d.flowBatch(vp, hour, p)
}

// VPNFlowBatch is Dataset.VPNFlowBatch with the result pinned.
func (p *Pin) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return p.d.vpnFlowBatch(vp, hour, p)
}

// ComponentFlowBatch is Dataset.ComponentFlowBatch with the result pinned.
func (p *Pin) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	return p.d.componentFlowBatch(vp, name, hour, p)
}

// Release unpins every entry and lets the cache evict what no longer
// fits. Safe to call on a nil pin and more than once.
func (p *Pin) Release() {
	if p == nil || p.d == nil {
		return
	}
	for _, fe := range p.entries {
		if fe.pins.Add(-1) == 0 {
			p.d.pinned.Add(-1)
		}
	}
	p.entries, p.seen = nil, nil
	d := p.d
	p.d = nil
	d.enforceBudget()
}

// vpModel is a vantage point's traffic model as the dataset's options
// resolve it, built on first use and then shared by every lookup: the
// generator configuration (Options.Model is asked exactly once per vantage
// point), its fingerprint, and the cache-key prefixes derived from it.
type vpModel struct {
	once        sync.Once
	cfg         synth.Config
	fingerprint string
	// Flow-batch key prefixes; the hour key (and, for component flows,
	// the component name) is appended per lookup.
	flowsKey, vpnFlowsKey, componentFlowsKey string
}

// model returns the resolved model of a vantage point.
func (d *Dataset) model(vp synth.VantagePoint) *vpModel {
	d.mu.Lock()
	m := d.models[vp]
	if m == nil {
		m = &vpModel{}
		d.models[vp] = m
	}
	d.mu.Unlock()
	m.once.Do(func() {
		m.cfg = d.opts.synthConfig(vp)
		m.fingerprint = m.cfg.Fingerprint()
		m.flowsKey = "flows/" + m.fingerprint + "/"
		m.vpnFlowsKey = "vpn-flows/" + m.fingerprint + "/"
		m.componentFlowsKey = "component-flows/" + m.fingerprint + "/"
	})
	return m
}

// Generator returns the shared generator of a vantage point. The instance
// is safe for concurrent read-only use; never call its mutating methods.
func (d *Dataset) Generator(vp synth.VantagePoint) (*synth.Generator, error) {
	m := d.model(vp)
	v, err := d.get("gen/"+m.fingerprint, func() (any, error) {
		return synth.New(m.cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*synth.Generator), nil
}

// VPN returns the shared VPN-detection dataset of a vantage point.
func (d *Dataset) VPN(vp synth.VantagePoint) (*VPNData, error) {
	v, err := d.get("vpn/"+d.model(vp).fingerprint, func() (any, error) {
		g, err := d.Generator(vp)
		if err != nil {
			return nil, err
		}
		return buildVPNData(g), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*VPNData), nil
}

// hourKey identifies one whole hour in cache keys.
func hourKey(t time.Time) string {
	return strconv.FormatInt(t.UTC().Truncate(time.Hour).Unix()/3600, 10)
}

// studySeries returns the memoized full study-window total-volume series
// of a vantage point. The series is sorted before it is published, so the
// read-only methods of the returned instance are safe for concurrent use.
func (d *Dataset) studySeries(vp synth.VantagePoint) (*timeseries.Series, error) {
	v, err := d.get("study-series/"+d.model(vp).fingerprint, func() (any, error) {
		g, err := d.Generator(vp)
		if err != nil {
			return nil, err
		}
		s := g.TotalSeries(calendar.StudyStart, calendar.StudyEnd)
		s.Points() // force the sort before the series is shared
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Series), nil
}

// Series returns the hourly total-volume series of [from, to). Ranges
// inside the study window are sliced from the memoized study series;
// anything else is generated (and memoized) directly. Values are identical
// either way because the generator is a pure function of its fingerprint.
func (d *Dataset) Series(vp synth.VantagePoint, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	if !from.Before(calendar.StudyStart) && !to.After(calendar.StudyEnd) {
		s, err := d.studySeries(vp)
		if err != nil {
			return nil, err
		}
		return s.Slice(from, to), nil
	}
	key := fmt.Sprintf("series/%s/%s-%s", d.model(vp).fingerprint, hourKey(from), hourKey(to))
	v, err := d.get(key, func() (any, error) {
		g, err := d.Generator(vp)
		if err != nil {
			return nil, err
		}
		s := g.TotalSeries(from, to)
		s.Points()
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Series).Slice(from, to), nil
}

// ClassSeries returns the hourly series of one traffic class over [from,
// to), memoized by range.
func (d *Dataset) ClassSeries(vp synth.VantagePoint, class synth.Class, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	key := fmt.Sprintf("class-series/%s/%s/%s-%s", d.model(vp).fingerprint, class, hourKey(from), hourKey(to))
	v, err := d.get(key, func() (any, error) {
		g, err := d.Generator(vp)
		if err != nil {
			return nil, err
		}
		s := g.ClassSeries(class, from, to)
		s.Points()
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*timeseries.Series), nil
}

// FlowBatch returns the sampled flows of one hour as a columnar batch,
// memoized per hour so experiments iterating overlapping hour grids (e.g.
// the port analysis and the application-class heatmap over the same weeks)
// share one sample. The batch comes from the dataset's FlowSource; the
// returned batch is shared and callers must not modify it.
func (d *Dataset) FlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return d.flowBatch(vp, hour, nil)
}

func (d *Dataset) flowBatch(vp synth.VantagePoint, hour time.Time, pin *Pin) (*flowrec.Batch, error) {
	key := d.model(vp).flowsKey + hourKey(hour)
	return d.getFlow(key, pin, func() (*flowrec.Batch, error) {
		return d.src.FlowBatch(vp, hour.UTC().Truncate(time.Hour))
	})
}

// VPNFlowBatch is FlowBatch for the gateway-pinned generator of the VPN
// analyses.
func (d *Dataset) VPNFlowBatch(vp synth.VantagePoint, hour time.Time) (*flowrec.Batch, error) {
	return d.vpnFlowBatch(vp, hour, nil)
}

func (d *Dataset) vpnFlowBatch(vp synth.VantagePoint, hour time.Time, pin *Pin) (*flowrec.Batch, error) {
	key := d.model(vp).vpnFlowsKey + hourKey(hour)
	return d.getFlow(key, pin, func() (*flowrec.Batch, error) {
		return d.src.VPNFlowBatch(vp, hour.UTC().Truncate(time.Hour))
	})
}

// ComponentFlowBatch returns the sampled flows of one named component for
// one hour as a columnar batch, memoized per hour.
func (d *Dataset) ComponentFlowBatch(vp synth.VantagePoint, name string, hour time.Time) (*flowrec.Batch, error) {
	return d.componentFlowBatch(vp, name, hour, nil)
}

func (d *Dataset) componentFlowBatch(vp synth.VantagePoint, name string, hour time.Time, pin *Pin) (*flowrec.Batch, error) {
	key := d.model(vp).componentFlowsKey + name + "/" + hourKey(hour)
	return d.getFlow(key, pin, func() (*flowrec.Batch, error) {
		return d.src.ComponentFlowBatch(vp, name, hour.UTC().Truncate(time.Hour))
	})
}

// Flows returns the sampled flow records of one hour: a thin record-slice
// adapter over FlowBatch for call sites that have not migrated to
// batches. The slice is materialised per call (one exact allocation) —
// deliberately not memoized, so legacy callers never double the cache's
// resident memory with parallel record copies of every hour.
func (d *Dataset) Flows(vp synth.VantagePoint, hour time.Time) ([]flowrec.Record, error) {
	b, err := d.FlowBatch(vp, hour)
	if err != nil {
		return nil, err
	}
	return b.Records(), nil
}

// VPNFlows is Flows for the gateway-pinned generator of the VPN analyses.
func (d *Dataset) VPNFlows(vp synth.VantagePoint, hour time.Time) ([]flowrec.Record, error) {
	b, err := d.VPNFlowBatch(vp, hour)
	if err != nil {
		return nil, err
	}
	return b.Records(), nil
}

// ComponentFlows returns the sampled flow records of one named component
// for one hour (per-call record-slice adapter over ComponentFlowBatch).
func (d *Dataset) ComponentFlows(vp synth.VantagePoint, name string, hour time.Time) ([]flowrec.Record, error) {
	b, err := d.ComponentFlowBatch(vp, name, hour)
	if err != nil {
		return nil, err
	}
	return b.Records(), nil
}
