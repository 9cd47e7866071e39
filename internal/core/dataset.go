package core

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// volume series and per-day flow samples — is produced at most once per
// key and shared across experiments. One Dataset serves exactly one
// Options value, so a key names the input alone: the vantage point for a
// model, a FlowKey for a flow batch, a range for a series.
//
// Flow batches, one per FlowKey, are drawn from the dataset's FlowSource:
// by default its own model, projected to each kind's columns, or — via
// NewDatasetWithSource — any other implementation, e.g. the wire-replay
// bridge that serves the same batches off live NetFlow/IPFIX export. Volume series always come from the local
// generator model; only the flow-record path is sourced.
//
// An experiment never holds a batch: it reads each of its days as a
// reduction (Env.partial, reads.go), a per-day fold of the batch into a
// small partial. The first draw of a key runs every reduction the run's
// experiments declared on it, keeps the partials on the entry and drops
// the batch, which thus never becomes resident; each partial is dropped in
// turn once every reader that declared it has taken it, and the entry,
// holding nothing, is drawn afresh by the next ask for a reduction. A
// suite run thus draws each key once, holds no batch past that draw and,
// at any budget, evicts, spills and faults nothing — and so does a second
// run on the same dataset, which draws each key once again.
//
// A batch drawn directly (Dataset.batch: Reread, the tests) is linked
// into a working set. With Options.CacheBudget unset every such batch
// stays resident. With a budget, the least-recently-used unpinned
// batches are evicted once the resident estimate exceeds it, and an
// evicted batch is simply forgotten: its next access rebuilds it from the
// flow source, which is a pure function of the key. Naming Options.CacheDir adds a disk tier in between: an evicted
// batch is first appended as a span to an append-only span file (package
// flowstore) and faulted back in — via a read-only mmap view of exactly
// that span, no decode and no copy — on its next access. Entries touched
// by a running experiment are pinned through its Env and never evicted
// mid-scan. A damaged span (truncation, bit flips) is detected by its
// checksum and the batch is rebuilt from the flow source like a forgotten
// one; spilling is an optimisation, never a new failure mode. Batches are
// identical bit for bit whether they were generated, faulted in, or
// rebuilt, so every metric of the suite is byte-identical at any budget.
//
// Concurrency model: a per-key entry is installed under a short mutex, and
// the expensive generation runs inside the entry's sync.Once, so
// concurrent consumers of the same key block only on that key while other
// keys generate in parallel; spill state transitions are serialised by a
// per-entry mutex. Cached values are immutable by convention: callers
// must not modify returned slices or call mutating methods (e.g.
// synth.Generator.SetVPNGateways) on shared instances. Batches handed out
// remain valid even if the entry is evicted afterwards — eviction only
// drops the cache's reference to a heap batch and never reuses its
// columns, and spans stay mapped until Close — so an unpinned caller is
// never left with a dangling view.
type Dataset struct {
	opts   Options
	model  *SyntheticSource // generator and VPN data per vantage point
	src    FlowSource       // model unless NewDatasetWithSource named another
	tracer *obs.Tracer

	mu      sync.Mutex
	flows   map[FlowKey]*flowEntry
	series  map[seriesKey]*memo[*timeseries.Series]
	offsets map[FlowKey]*memo[[]int] // hourRows' row offsets, per key asked

	readers  map[FlowKey][]reader             // the reductions declared on each key, with their takes left (declare, take)
	reducers map[*reduction]*memo[reduceFunc] // each reduction's function, built once
	taken    func(FlowKey, *reduction, any)   // when set, sees every partial a reader takes (tests)

	// Cache instruments: one count per memoized lookup — a model part, a
	// series range, a flow batch — a miss when the lookup installed the
	// value. These are the single source of truth for both
	// CacheStats and the lockdown_cache_* metric families: Stats() reads
	// the same counters a /metrics scrape does, so the stderr summary
	// and the exposition can never disagree. With Options.Obs unset the
	// counters are standalone atomics — same cost, nothing exported.
	hits   *obs.Counter
	misses *obs.Counter

	// Eviction and the spill tier (flow-batch entries only). The tier
	// counters move under lmu together with the byte totals they explain,
	// so a Stats snapshot never shows spilled bytes without the spill that
	// wrote them, or freed bytes without their eviction.
	budget    int64
	evictions *obs.Counter
	spills    *obs.Counter
	faults    *obs.Counter
	regens    *obs.Counter
	pinned    atomic.Int64 // entries with at least one live pin

	lmu      sync.Mutex // guards the fields below; acquired after an entry's mu
	lru      *list.List // *flowEntry; front = most recently used
	resident int64      // heap-byte estimate of resident flow batches
	spilled  int64      // bytes of live spans
	dir      string     // spill directory under opts.CacheDir, created on first spill
	dirErr   error      // why there is no spill directory (sticky)
	files    []*flowstore.SpanFile
	closed   bool
}

// seriesKey names a memoized hourly series over a range: the total volume
// (the whole study window, or a range outside it) or one class's.
type seriesKey struct {
	vp       synth.VantagePoint
	class    synth.Class
	from, to Hour
}

// flowEntry is the evictable cache slot of one flow batch. The first
// access generates the batch inside once. A first draw for a reduction
// keeps the partials and drops the batch, which leaves the entry as if
// forgotten; once its last partial is taken the entry is spent, and the
// next ask for a reduction replaces it with a fresh one. The rest of the
// machinery tracks which tier a batch drawn directly currently occupies:
//
//	dropped  ──fault (build again)──────────▶ resident    (first draw was a reduction)
//	resident ──evict────────────────────────▶ forgotten   (no CacheDir)
//	resident ◀──────fault (build again)────── forgotten
//	resident ──evict (append on first time)──▶ spilled     (CacheDir set)
//	resident ◀──────fault (mmap view)──────── spilled
//
// The entry's mutex serialises tier transitions; pins (atomic, bumped
// under mu) keep it resident while experiments scan it.
type flowEntry struct {
	key  FlowKey
	once sync.Once
	err  error // the first build failed; the entry never holds a batch

	// partials are the reductions of the batch its first draw ran, by
	// reduction: set inside once, then each deleted, under Dataset.mu, by
	// the last take its declared readers make, or by the take of an
	// undeclared one (Dataset.take).
	partials map[*reduction]any

	// direct and spent are guarded by Dataset.mu. direct: a caller drew
	// the batch itself (Dataset.batch), so the entry may hold it in a
	// tier, and it is never spent. spent: the entry holds no batch and no
	// partial, so the next ask for a reduction installs a fresh entry in
	// its place (Dataset.entry), whose first draw runs the reductions
	// declared by then. No one links a spent entry: a direct draw of it
	// makes it direct first, and a take that finds no partial draws the
	// batch without the entry (Dataset.partial).
	direct, spent bool

	// rows and cols of the batch as the source delivered it, in whichever
	// tier it is.
	rows int
	cols flowrec.Columns

	mu        sync.Mutex
	pins      atomic.Int32
	batch     *flowrec.Batch      // nil while evicted
	heapBytes int64               // resident heap estimate of batch
	file      *flowstore.SpanFile // span file holding the batch; nil until first spill
	ref       flowstore.SpanRef   // the batch's span in file
	seg       *flowstore.Segment  // the mapped, verified span; nil until first fault

	elem *list.Element // LRU position, guarded by Dataset.lmu; nil if unlinked
}

// NewDataset returns an empty dataset cache for the given options, backed
// by the in-process synthetic generator.
func NewDataset(opts Options) *Dataset {
	return NewDatasetWithSource(opts, nil)
}

// NewDatasetWithSource returns an empty dataset cache whose flow batches
// are drawn from src (nil selects the dataset's own model). The source
// must produce batches bit-identical to the generator at the same options
// for the suite's determinism guarantees to hold; the replay bridge
// verifies this per batch.
func NewDatasetWithSource(opts Options, src FlowSource) *Dataset {
	reg := opts.Obs
	d := &Dataset{
		opts:      opts,
		tracer:    opts.Tracer,
		flows:     make(map[FlowKey]*flowEntry),
		series:    make(map[seriesKey]*memo[*timeseries.Series]),
		offsets:   make(map[FlowKey]*memo[[]int]),
		readers:   make(map[FlowKey][]reader),
		reducers:  make(map[*reduction]*memo[reduceFunc]),
		budget:    opts.CacheBudget,
		lru:       list.New(),
		hits:      reg.Counter("lockdown_cache_hits_total", "Dataset cache key lookups that found an entry."),
		misses:    reg.Counter("lockdown_cache_misses_total", "Dataset cache key lookups that installed a new entry."),
		evictions: reg.Counter("lockdown_cache_evictions_total", "Resident flow batches dropped to fit the cache budget."),
		spills:    reg.Counter("lockdown_cache_spills_total", "Flow batches appended to a span file on eviction."),
		faults:    reg.Counter("lockdown_cache_faults_total", "Evicted flow batches brought back for an access, mapped from a span or rebuilt."),
		regens:    reg.Counter("lockdown_cache_regens_total", "Faults that found a damaged span and rebuilt from the flow source."),
	}
	d.model = NewSyntheticSource(opts)
	d.model.count = d.count
	if src == nil {
		src = d.model
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
	reg.GaugeFunc("lockdown_cache_spilled_bytes", "Total size of live spans on disk.",
		func() float64 { return float64(d.Stats().SpilledBytes) })
	reg.GaugeFunc("lockdown_cache_pinned", "Flow-batch entries currently pinned by a running experiment or scan chunk.",
		func() float64 { return float64(d.Stats().Pinned) })
	if reg != nil {
		flowstore.Instrument(reg)
	}
	return d
}

// count books one memoized lookup.
func (d *Dataset) count(miss bool) {
	if miss {
		d.misses.Add(1)
	} else {
		d.hits.Add(1)
	}
}

// batch returns the flow batch k names: the first access asks the flow
// source for it inside the entry's once; later accesses return the
// resident batch or fault it back in. pin (optional) keeps the entry
// resident until the pin is released. A source may deliver more than
// k.Columns(), never less.
func (d *Dataset) batch(k FlowKey, pin *Pin) (*flowrec.Batch, error) {
	fe, err := d.entry(k, pin, nil)
	if err != nil {
		return nil, err
	}
	b, err := d.acquire(fe, pin)
	if err != nil {
		return nil, err
	}
	d.enforceBudget()
	return b, nil
}

// entry returns the cache entry of k, counting the lookup, and draws the
// batch on the first ask (fill). asked is the reduction the caller wants
// of it, nil for the batch itself. An ask for a reduction of a spent
// entry replaces it with a fresh one, drawn again; the lookup still
// counts as a hit, since the key stays memoized.
func (d *Dataset) entry(k FlowKey, pin *Pin, asked *reduction) (*flowEntry, error) {
	d.mu.Lock()
	fe, ok := d.flows[k]
	if !ok || (fe.spent && asked != nil) {
		fe = &flowEntry{key: k}
		d.flows[k] = fe
	}
	if asked == nil {
		fe.direct, fe.spent = true, false
	}
	d.mu.Unlock()
	d.count(!ok)
	fe.once.Do(func() { fe.err = d.fill(fe, pin, asked) })
	return fe, fe.err
}

// fill is the first draw of an entry, run inside its once: it asks the
// flow source for the batch, runs every reduction declared on the key
// (declare), and the one asked for if it was not declared, on it and
// keeps the partials. When the caller asked for a reduction the batch is
// then dropped: it is never linked, so it is never resident, evicted or
// spilled, and only its rows and columns stay, for the batch accounting.
// A caller that asked for the batch has the entry pinned and linked
// resident. A reduction the caller did not ask for runs in a "reduce"
// trace span naming its owner and the key, so the time one experiment
// spends folding a day for another shows as such.
func (d *Dataset) fill(fe *flowEntry, pin *Pin, asked *reduction) error {
	b, err := d.draw(fe.key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	rs := make([]*reduction, 0, len(d.readers[fe.key])+1)
	for _, x := range d.readers[fe.key] {
		rs = append(rs, x.r)
	}
	d.mu.Unlock()
	if asked != nil && !slices.Contains(rs, asked) {
		rs = append(rs, asked)
	}
	if len(rs) > 0 {
		fe.partials = make(map[*reduction]any, len(rs))
	}
	for _, r := range rs {
		var sp obs.Span
		if r != asked {
			sp = d.tracer.Start("reduce", "scan")
		}
		p, err := d.reduce(r, fe.key, b)
		if sp.Active() {
			sp.EndArgs(map[string]any{"owner": r.owner, "key": fe.key.String()})
		}
		if err != nil {
			return err
		}
		fe.partials[r] = p
	}
	fe.rows, fe.cols = b.Len(), b.Columns()
	if asked != nil {
		return nil
	}
	fe.batch, fe.heapBytes = b, b.HeapBytes()
	// Pin before linking: once the entry is in the LRU another
	// goroutine's enforceBudget could evict it unpinned, and this
	// reader would generate the batch a second time.
	if pin != nil {
		pin.add(fe)
	}
	d.link(fe, fe.heapBytes, false)
	return nil
}

// draw asks the flow source for the batch k names, which must hold at
// least k's columns.
func (d *Dataset) draw(k FlowKey) (*flowrec.Batch, error) {
	b, err := fetch(d.src, k)
	if err == nil {
		err = b.Require(k.Columns())
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// acquire returns the entry's batch, faulting it back in if it is
// evicted or its first draw dropped it, and registers the pin. The
// returned batch stays valid even if the entry is evicted afterwards.
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
			sp.EndArgs(map[string]any{"key": fe.key.String(), "bytes": heap})
		}
		fe.batch, fe.heapBytes = b, heap
		d.link(fe, heap, true)
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

// faultIn brings an evicted or dropped entry's batch back, called with
// fe.mu held. An entry with a span maps (once) and views it; an entry without one —
// there is no cache directory, or its span was damaged — is rebuilt from
// the flow source. A span that fails its checksum, reaches beyond its
// file, cannot be read or holds fewer columns than the entry's batch had
// is dropped first — the cache never propagates storage corruption as an
// error or a panic. A damaged span only degrades its own entry; its
// neighbours in the file keep serving.
func (d *Dataset) faultIn(fe *flowEntry) (*flowrec.Batch, int64, error) {
	if fe.seg == nil && fe.file != nil {
		seg, err := fe.file.Span(fe.ref)
		if err != nil {
			d.dropSpan(fe)
		} else {
			fe.seg = seg
		}
	}
	if fe.seg != nil {
		if b, heap := fe.seg.Batch(); b.Columns().Has(fe.cols) {
			return b, heap, nil
		}
		fe.seg.Close()
		fe.seg = nil
		d.dropSpan(fe)
	}
	b, err := fetch(d.src, fe.key)
	if err != nil {
		return nil, 0, err
	}
	return b, b.HeapBytes(), nil
}

// dropSpan forgets a damaged (or unreadable) span so the next eviction
// appends a fresh one, and counts the regeneration. The bytes stay in
// the append-only file; its other spans are independently checksummed.
func (d *Dataset) dropSpan(fe *flowEntry) {
	if d.tracer != nil {
		d.tracer.Instant("cache-regen", "cache", map[string]any{"key": fe.key.String()})
	}
	d.lmu.Lock()
	d.regens.Add(1)
	d.spilled -= fe.ref.Size
	d.lmu.Unlock()
	fe.file = nil
}

// link adds heap bytes for an entry that just became resident — counting
// the fault if that is how it did — and moves it to the LRU front. Called
// with fe.mu held (or from inside the generating once, where the entry
// is not yet visible to eviction).
func (d *Dataset) link(fe *flowEntry, heap int64, faulted bool) {
	d.lmu.Lock()
	if faulted {
		d.faults.Add(1)
	}
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
// the resident estimate fits the budget (0 = unlimited; nothing is ever
// evicted). Pinned entries are skipped, so the budget is a target the
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

// evict drops one entry's resident batch. Without a cache directory that
// is all of it: the batch is forgotten and its next access rebuilds it
// from the flow source. With one, the first eviction appends the batch as
// a span (later ones reuse it). Returns false when the spill failed and
// eviction should stop instead of spinning on the same entry.
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
	if fe.file == nil && d.opts.CacheDir != "" {
		sp := d.tracer.Start("cache-spill", "cache")
		file, ref, err := d.spill(fe.batch)
		if sp.Active() {
			sp.EndArgs(map[string]any{"key": fe.key.String(), "bytes": ref.Size})
		}
		if err != nil {
			// Cannot spill (disk full, unwritable dir): keep the batch
			// resident rather than losing it.
			d.relink(fe)
			return false
		}
		fe.file, fe.ref = file, ref
	}
	fe.batch = nil
	d.lmu.Lock()
	d.evictions.Add(1)
	d.resident -= fe.heapBytes
	d.lmu.Unlock()
	fe.heapBytes = 0
	if fe.seg != nil {
		if fe.seg.Mapped() {
			fe.seg.Evicted() // hint the OS to reclaim the mapped pages
		} else {
			// Heap-fallback span (non-linux, or mmap failed): the span
			// lives in a heap buffer the Segment holds, so keeping it
			// would defeat the eviction. Close drops the cache's
			// reference — views already handed out keep the buffer
			// alive through their aliasing slices — and the next fault
			// re-reads (and re-verifies) the span.
			fe.seg.Close()
			fe.seg = nil
		}
	}
	return true
}

// spill appends the batch to the current span file, starting the next
// file when another eviction sealed this one first.
func (d *Dataset) spill(b *flowrec.Batch) (*flowstore.SpanFile, flowstore.SpanRef, error) {
	for {
		file, err := d.spanFile()
		if err != nil {
			return nil, flowstore.SpanRef{}, err
		}
		ref, err := file.Append(b)
		if err == flowstore.ErrSealed {
			continue
		}
		if err != nil {
			return nil, flowstore.SpanRef{}, err
		}
		d.lmu.Lock()
		d.spills.Add(1)
		d.spilled += ref.Size
		d.lmu.Unlock()
		return file, ref, nil
	}
}

// spanFile returns the span file evictions currently append to. The
// spill directory — a private temp dir under Options.CacheDir, removed by
// Close — and the first file are created on the first spill; a sealed
// file is followed by a new one.
func (d *Dataset) spanFile() (*flowstore.SpanFile, error) {
	d.lmu.Lock()
	defer d.lmu.Unlock()
	if n := len(d.files); n > 0 && !d.files[n-1].Sealed() {
		return d.files[n-1], nil
	}
	if d.dir == "" && d.dirErr == nil {
		if d.dirErr = os.MkdirAll(d.opts.CacheDir, 0o755); d.dirErr == nil {
			d.dir, d.dirErr = os.MkdirTemp(d.opts.CacheDir, "lockdown-flowstore-")
		}
	}
	if d.dirErr != nil {
		return nil, d.dirErr
	}
	file, err := flowstore.Create(filepath.Join(d.dir, fmt.Sprintf("spill-%06d%s", len(d.files)+1, flowstore.SpannedExt)))
	if err != nil {
		return nil, err
	}
	d.files = append(d.files, file)
	return file, nil
}

// Close releases every mapped span and removes the spill directory.
// It must only be called once no experiment is running and no returned
// batch is in use; the CLI defers it around a whole run. Close is
// idempotent. A dataset keeps working after Close — subsequent accesses
// regenerate from the source — but it no longer evicts or spills.
func (d *Dataset) Close() error {
	d.mu.Lock()
	fes := make([]*flowEntry, 0, len(d.flows))
	for _, fe := range d.flows {
		fes = append(fes, fe)
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
		fe.file = nil
		fe.mu.Unlock()
	}
	d.lmu.Lock()
	dir, files := d.dir, d.files
	d.dir, d.files, d.dirErr = "", nil, fmt.Errorf("core: dataset is closed")
	d.spilled = 0
	d.closed = true
	d.lmu.Unlock()
	for _, file := range files {
		if err := file.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Stats returns the cache's entry, hit/miss, eviction and spill-tier
// counters.
// Every miss memoizes one value and none is ever removed, so Entries is
// the miss count; the tier counters and byte totals are read inside lmu,
// the lock that orders their writers, so spilled bytes never appear
// without their spill.
func (d *Dataset) Stats() CacheStats {
	var s CacheStats
	s.Hits, s.Misses = d.hits.Value(), d.misses.Value()
	s.Entries = int(s.Misses)
	d.lmu.Lock()
	s.ResidentBytes, s.SpilledBytes = d.resident, d.spilled
	s.Evictions, s.Spills, s.Faults, s.Regens = d.evictions.Value(), d.spills.Value(), d.faults.Value(), d.regens.Value()
	d.lmu.Unlock()
	s.Pinned = int(d.pinned.Load())
	s.Budget = d.budget
	return s
}

// Pin keeps the flow-batch entries a scan chunk touches resident until
// Release. ShardedScan gives each chunk one (Env.chunkEnv) and releases it
// when the chunk returns, so eviction never races a reader; every partial
// the suite takes is taken inside a chunk, and the chunk's pin reports its
// entry to the experiment's batch accounting. A Pin is used by one
// goroutine (the chunk's); it is not safe for concurrent use.
type Pin struct {
	d       *Dataset
	entries []*flowEntry
	seen    map[*flowEntry]struct{}
	// drawn, when set, is the accounting every chunk pin of one
	// experiment reports its entries to (see Env.chunkEnv).
	drawn *drawnSet
}

// NewPin returns an empty pin.
func (d *Dataset) NewPin() *Pin { return &Pin{d: d} }

// drawnSet is the distinct flow-batch entries one experiment drew —
// through the pins of its scan chunks — with their
// summed size, rows × the width of the columns each entry stores: what
// MetricBatchMB reports. Being a set it reads the same however the scans
// were chunked, parallelised or re-faulted.
type drawnSet struct {
	mu    sync.Mutex
	seen  map[*flowEntry]struct{}
	bytes int64
}

func (s *drawnSet) add(fe *flowEntry) {
	s.mu.Lock()
	if _, ok := s.seen[fe]; !ok {
		s.seen[fe] = struct{}{}
		s.bytes += int64(fe.rows) * int64(fe.cols.RowBytes())
	}
	s.mu.Unlock()
}

// batchMB is the drawn rows at their stored size, in MiB.
func (s *drawnSet) batchMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.bytes) / (1 << 20)
}

// add registers the entry, called with fe.mu held (or before the entry is
// linked, when no other goroutine can reach it).
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
	if p.drawn != nil {
		p.drawn.add(fe)
	}
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

// hourRows returns the rows [lo, hi) that hold the hours-of-day [from, to)
// in b, the batch k names. A key's batch is its hours sampled in hour
// order, so an hour's rows are contiguous, and where they lie follows from
// the model's row count of each hour, computed on the first ask per key.
// Every source delivers the model's rows (the replay bridge verifies each
// one), so the offsets hold for any source's batch; a batch whose length
// disagrees with them, or hours outside the key's window (FlowKey.Hours),
// are an error.
func (d *Dataset) hourRows(k FlowKey, b *flowrec.Batch, from, to int) (lo, hi int, err error) {
	w0, w1 := k.Hours()
	if from < w0 || to > w1 || from > to {
		return 0, 0, fmt.Errorf("core: hours [%d, %d) of %s are outside its window [%d, %d)", from, to, k, w0, w1)
	}
	d.mu.Lock()
	m := d.offsets[k]
	if m == nil {
		m = new(memo[[]int])
		d.offsets[k] = m
	}
	d.mu.Unlock()
	offs, err := m.get(nil, func() ([]int, error) {
		counts, err := d.model.hourFlows(k)
		if err != nil {
			return nil, err
		}
		offs := make([]int, len(counts)+1)
		for i, n := range counts {
			offs[i+1] = offs[i] + n
		}
		return offs, nil
	})
	if err != nil {
		return 0, 0, err
	}
	if total := offs[len(offs)-1]; total != b.Len() {
		return 0, 0, fmt.Errorf("core: %s has %d rows, its model's hours %d", k, b.Len(), total)
	}
	return offs[from-w0], offs[to-w0], nil
}

// Generator returns the shared generator of a vantage point. The instance
// is safe for concurrent read-only use; never call its mutating methods.
func (d *Dataset) Generator(vp synth.VantagePoint) (*synth.Generator, error) {
	return d.model.Generator(vp)
}

// VPN returns the shared VPN-detection dataset of a vantage point.
func (d *Dataset) VPN(vp synth.VantagePoint) (*VPNData, error) { return d.model.VPN(vp) }

// rangeSeries memoizes one generated series under its range key.
func (d *Dataset) rangeSeries(k seriesKey, gen func(*synth.Generator) *timeseries.Series) (*timeseries.Series, error) {
	d.mu.Lock()
	m := d.series[k]
	if m == nil {
		m = new(memo[*timeseries.Series])
		d.series[k] = m
	}
	d.mu.Unlock()
	return m.get(d.count, func() (*timeseries.Series, error) {
		g, err := d.Generator(k.vp)
		if err != nil {
			return nil, err
		}
		s := gen(g)
		// Sort before the series is shared. The generator's builders add in
		// time order, so this is a no-op for them; it stays as the guard
		// for any builder that does not.
		s.Points()
		return s, nil
	})
}

// Series returns the hourly total-volume series of [from, to). Ranges
// inside the study window are sliced from one memoized series of the whole
// window, in O(log n), as views that share its points (an Add to a view
// reallocates it, so callers may append to what they get); anything else
// is generated (and memoized) directly. Values are identical either way
// because the generator is a pure function of its configuration.
func (d *Dataset) Series(vp synth.VantagePoint, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	genFrom, genTo := from, to
	if !from.Before(calendar.StudyStart) && !to.After(calendar.StudyEnd) {
		genFrom, genTo = calendar.StudyStart, calendar.StudyEnd
	}
	s, err := d.rangeSeries(seriesKey{vp: vp, from: HourOf(genFrom), to: HourOf(genTo)}, func(g *synth.Generator) *timeseries.Series {
		return g.TotalSeries(genFrom, genTo)
	})
	if err != nil {
		return nil, err
	}
	return s.Slice(from, to), nil
}

// ClassSeries returns the hourly series of one traffic class over [from,
// to), memoized by range.
func (d *Dataset) ClassSeries(vp synth.VantagePoint, class synth.Class, from, to time.Time) (*timeseries.Series, error) {
	from, to = from.UTC().Truncate(time.Hour), to.UTC().Truncate(time.Hour)
	return d.rangeSeries(seriesKey{vp: vp, class: class, from: HourOf(from), to: HourOf(to)}, func(g *synth.Generator) *timeseries.Series {
		return g.ClassSeries(class, from, to)
	})
}
