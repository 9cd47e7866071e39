package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
	"lockdown/internal/obs"
	"lockdown/internal/synth"
)

// spillFiles lists the files under dir by extension.
func spillFiles(t *testing.T, dir string) map[string][]string {
	t.Helper()
	byExt := make(map[string][]string)
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			byExt[filepath.Ext(path)] = append(byExt[filepath.Ext(path)], path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return byExt
}

// spillDays is a run of distinct study-window days, one flow key each.
func spillDays(n int) []time.Time {
	days := make([]time.Time, n)
	for i := range days {
		days[i] = DayOf(spillHour).Time().AddDate(0, 0, i)
	}
	return days
}

// sameAsGenerated asserts every day of d equals a fresh uncached
// dataset's.
func sameAsGenerated(t *testing.T, d *Dataset, scale float64, days []time.Time) {
	t.Helper()
	sameKindAsGenerated(t, d, scale, days, (*Dataset).FlowBatch)
}

// sameKindAsGenerated is sameAsGenerated for any batch kind of the ISP-CE.
func sameKindAsGenerated(t *testing.T, d *Dataset, scale float64, days []time.Time,
	get func(*Dataset, synth.VantagePoint, time.Time) (*flowrec.Batch, error)) {
	t.Helper()
	fresh := NewDataset(Options{FlowScale: scale})
	defer fresh.Close()
	for _, day := range days {
		got, err := get(d, synth.ISPCE, day)
		if err != nil {
			t.Fatalf("day %v: %v", day, err)
		}
		ref, err := get(fresh, synth.ISPCE, day)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got) {
			t.Fatalf("day %v: faulted batch differs from generated", day)
		}
	}
}

// TestOnlineCompaction keeps its name to document the removal: there is
// no compaction. A run of spilled days lands, each written once, in one
// append-only span file — never a file per batch — and every day
// faults back bit-identical through the span reference its entry kept.
func TestOnlineCompaction(t *testing.T) {
	opts := tinyOpts(t)
	d := NewDataset(opts)
	defer d.Close()

	days := spillDays(24)
	for _, day := range days {
		if _, err := d.FlowBatch(synth.ISPCE, day); err != nil {
			t.Fatal(err)
		}
	}
	files := spillFiles(t, opts.CacheDir)
	if len(files) != 1 || len(files[flowstore.SpannedExt]) != 1 {
		t.Fatalf("%d spilled days must share one span file, found %v", len(days), files)
	}
	sameAsGenerated(t, d, opts.FlowScale, days)
	s := d.Stats()
	if s.Spills != int64(len(days)) || s.Faults != int64(len(days)) || s.Regens != 0 {
		t.Errorf("each day is written once and faulted once, never regenerated: %+v", s)
	}
}

// TestCompactionDamagedSpan damages one entry's span — a flipped bit the
// checksum catches, and a reference to an intact span that holds fewer
// columns than the entry's batch had, which only the entry's own column
// set catches — and asserts the damage stays span-granular: that entry
// regenerates, its neighbours in the same file keep serving without a
// regen. The days are VPN flow batches, the kind that stores addresses.
func TestCompactionDamagedSpan(t *testing.T) {
	// rewrite edits the victim's span in its file.
	rewrite := func(t *testing.T, victim *flowEntry, edit func(span []byte)) {
		path := victim.file.Path()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edit(raw[victim.ref.Off : victim.ref.Off+victim.ref.Size])
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(t *testing.T, d *Dataset, victim *flowEntry, day time.Time){
		"bitflip": func(t *testing.T, _ *Dataset, victim *flowEntry, _ time.Time) {
			rewrite(t, victim, func(span []byte) { span[len(span)/2] ^= 0xff })
		},
		"narrower-set": func(t *testing.T, d *Dataset, victim *flowEntry, day time.Time) {
			// An intact span of the same day without its addresses: it
			// maps, verifies and views, and must still not be served.
			b, err := d.src.VPNFlowBatch(synth.ISPCE, day)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := victim.file.Append(b.Project(victim.key.Columns() &^ (flowrec.ColSrcIP | flowrec.ColDstIP)))
			if err != nil {
				t.Fatal(err)
			}
			victim.ref = ref
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			opts := tinyOpts(t)
			d := NewDataset(opts)
			defer d.Close()

			days := spillDays(8)
			for _, day := range days {
				if _, err := d.VPNFlowBatch(synth.ISPCE, day); err != nil {
					t.Fatal(err)
				}
			}
			if files := spillFiles(t, opts.CacheDir)[flowstore.SpannedExt]; len(files) != 1 {
				t.Fatalf("want one span file, found %v", files)
			}
			victim := d.flows[FlowKey{Kind: KindVPNFlows, VP: synth.ISPCE, Hour: DayOf(days[3])}]
			if want := victim.key.Columns(); victim.cols != want || victim.ref.Cols != want {
				t.Fatalf("entry stores %s, its span %s, want the kind's %s", victim.cols, victim.ref.Cols, want)
			}
			damage(t, d, victim, days[3])

			sameKindAsGenerated(t, d, opts.FlowScale, days, (*Dataset).VPNFlowBatch)
			if s := d.Stats(); s.Regens != 1 || s.Faults != int64(len(days)) {
				t.Errorf("want exactly the damaged day regenerated: %+v", s)
			}
			// The regenerated day spills again, as a new span of the same file.
			sameKindAsGenerated(t, d, opts.FlowScale, days, (*Dataset).VPNFlowBatch)
			if s := d.Stats(); s.Regens != 1 || s.Spills != int64(len(days))+1 {
				t.Errorf("regenerated day must respill once and then fault cleanly: %+v", s)
			}
		})
	}
}

// TestCompactionConcurrentAccess hammers one span file from many
// goroutines under a tiny budget: concurrent appends (first evictions of
// fresh days), faults of spans other goroutines appended and repeated
// evictions must be free of races (run with -race in CI) and every
// batch must stay correct.
func TestCompactionConcurrentAccess(t *testing.T) {
	opts := tinyOpts(t)
	d := NewDataset(opts)
	defer d.Close()

	days := spillDays(24)
	fresh := NewDataset(Options{FlowScale: opts.FlowScale})
	defer fresh.Close()
	wantLens := make([]int, len(days))
	for i, day := range days {
		b, err := fresh.FlowBatch(synth.ISPCE, day)
		if err != nil {
			t.Fatal(err)
		}
		wantLens[i] = b.Len()
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for k := range days {
					i := (k + w*3) % len(days) // workers start apart, so first accesses overlap
					b, err := d.FlowBatch(synth.ISPCE, days[i])
					if err != nil {
						t.Errorf("worker %d: day %v: %v", w, days[i], err)
						return
					}
					if b.Len() != wantLens[i] {
						t.Errorf("worker %d: day %v: %d rows, want %d", w, days[i], b.Len(), wantLens[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	sameAsGenerated(t, d, opts.FlowScale, days)
	if s := d.Stats(); s.Regens != 0 || s.Spills != int64(len(days)) {
		t.Errorf("every day spills exactly once and none regenerates: %+v", s)
	}
}

// TestSpillFailureKeepsBatchResident: when the tier cannot write — no
// spill directory can be made, or the append itself fails — the batch
// stays resident, eviction stops, and the experiment sees no error.
func TestSpillFailureKeepsBatchResident(t *testing.T) {
	check := func(t *testing.T, d *Dataset, wantSpills int64) {
		t.Helper()
		for round := 0; round < 2; round++ {
			b, err := d.FlowBatch(synth.ISPCE, spillHour.AddDate(0, 0, 1)) // another day: a batch not yet spilled
			if err != nil {
				t.Fatalf("a failed spill must not reach the caller: %v", err)
			}
			if b.IsView() {
				t.Fatal("batch was evicted although it could not be spilled")
			}
		}
		s := d.Stats()
		if s.Spills != wantSpills || s.ResidentBytes == 0 || s.Regens != 0 {
			t.Errorf("batch must stay resident, unspilled: %+v", s)
		}
	}
	t.Run("unwritable-dir", func(t *testing.T) {
		// A cache dir below a regular file cannot be created by anyone,
		// root included (a read-only directory would not stop root).
		file := filepath.Join(t.TempDir(), "plain-file")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		d := NewDataset(Options{FlowScale: 0.02, CacheBudget: 1, CacheDir: filepath.Join(file, "cache")})
		defer d.Close()
		check(t, d, 0)
	})
	t.Run("append-fails", func(t *testing.T) {
		d := NewDataset(tinyOpts(t))
		defer d.Close()
		if _, err := d.FlowBatch(synth.ISPCE, spillHour); err != nil {
			t.Fatal(err)
		}
		if len(d.files) != 1 {
			t.Fatalf("want one span file after the first spill, have %d", len(d.files))
		}
		d.files[0].Close() // every later pwrite fails, like a full disk
		check(t, d, 1)
	})
}

// TestWriteBytesCountsEverySpilledByte compares
// lockdown_flowstore_write_bytes_total with the spill directory before
// Close removes it: every byte of every file is either counted or an
// alignment hole after a span.
func TestWriteBytesCountsEverySpilledByte(t *testing.T) {
	opts := tinyOpts(t)
	opts.Obs = obs.NewRegistry()
	d := NewDataset(opts)
	defer d.Close()
	defer flowstore.Instrument(nil)

	for _, day := range spillDays(12) {
		if _, err := d.FlowBatch(synth.ISPCE, day); err != nil {
			t.Fatal(err)
		}
	}
	var onDisk, holes int64
	for _, file := range d.files {
		if err := file.Seal(); err != nil { // as a roll-over would
			t.Fatal(err)
		}
		fi, err := os.Stat(file.Path())
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
		for _, ref := range file.Refs() {
			holes += (4096 - ref.Size%4096) % 4096
		}
	}
	written := opts.Obs.Counter("lockdown_flowstore_write_bytes_total", "").Value()
	if written == 0 || written != onDisk-holes {
		t.Fatalf("write_bytes_total = %d, spill dir holds %d bytes of which %d are alignment holes", written, onDisk, holes)
	}
	if s := d.Stats(); written <= s.SpilledBytes {
		t.Fatalf("write_bytes_total %d must exceed the %d span bytes by the index and header", written, s.SpilledBytes)
	}
}

// TestStatsSnapshotConsistent takes snapshots while eight goroutines
// look up and evict: every snapshot must be consistent within each of
// its lock groups — one miss per entry, no spilled bytes without a
// spill. Run with -race.
func TestStatsSnapshotConsistent(t *testing.T) {
	d := NewDataset(tinyOpts(t))
	defer d.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := d.FlowBatch(synth.ISPCE, spillHour.Add(time.Duration(w*1000+i)*time.Hour)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		s := d.Stats()
		if int64(s.Entries) != s.Misses {
			t.Errorf("snapshot %d: %d entries but %d misses", i, s.Entries, s.Misses)
			break
		}
		if s.SpilledBytes > 0 && s.Spills == 0 {
			t.Errorf("snapshot %d: %d spilled bytes without a spill", i, s.SpilledBytes)
			break
		}
	}
	close(stop)
	wg.Wait()
}
