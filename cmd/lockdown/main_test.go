package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lockdown/internal/cluster"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/flowrec"
	"lockdown/internal/flowstore"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/synth"
)

// TestCacheStatKilledRun: a spill directory left by a killed run holds
// sealed files and one the writer never sealed. `cache stat` verifies
// the sealed ones span by span, lists the unsealed one as bad and fails
// with the count — it does not panic on the headerless file.
func TestCacheStatKilledRun(t *testing.T) {
	dir := t.TempDir()
	b := flowrec.NewBatch(1)
	b.Append(flowrec.Record{SrcPort: 443, Bytes: 1500, Packets: 1})
	for i, name := range []string{"spill-000001", "spill-000002"} {
		sf, err := flowstore.Create(filepath.Join(dir, name+flowstore.SpannedExt))
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		if _, err := sf.Append(b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := sf.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), []string{"cache", "stat", dir}); err != nil {
				t.Fatalf("a directory of sealed files must stat clean: %v", err)
			}
		}
	}
	err := run(context.Background(), []string{"cache", "stat", dir})
	if err == nil || !strings.Contains(err.Error(), "1 bad") {
		t.Fatalf("cache stat with an unsealed file = %v, want a 1-bad-file error", err)
	}
	if err := run(context.Background(), []string{"cache", "compact", dir}); err == nil {
		t.Fatal("cache compact is gone and must be refused")
	}

	// A sealed file of the previous format version (17-byte address
	// slots) is counted bad, not misread.
	sealed := filepath.Join(dir, "spill-000001"+flowstore.SpannedExt)
	raw, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != 5 {
		t.Fatalf("header version byte = %d, want 5", raw[4])
	}
	raw[4] = 4
	if err := os.WriteFile(sealed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"cache", "stat", dir})
	if err == nil || !strings.Contains(err.Error(), "2 bad") {
		t.Fatalf("cache stat with an unsealed and a version-4 file = %v, want a 2-bad-files error", err)
	}
}

// silence points *f — os.Stdout or os.Stderr — at the null device for the
// rest of the test. Not for parallel tests: both are process-global.
func silence(t *testing.T, f **os.File) {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := *f
	*f = null
	t.Cleanup(func() { *f = old; null.Close() })
}

// TestWireEvents: the wire summary carries the bridge totals, one indented
// line per shard naming the vantage points it owns (idle shards included,
// so one that served nothing is visible as such), rebalances and chaos
// totals when there were any, and a single pump line holding the pumps'
// counters summed over all shards.
func TestWireEvents(t *testing.T) {
	render := func(stats cluster.Stats, part map[synth.VantagePoint]int) []string {
		t.Helper()
		var out strings.Builder
		if err := report.WriteEvents(&out, wireEvents(stats, part)); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}
	expect := func(lines []string, want ...string) {
		t.Helper()
		if len(lines) != len(want) {
			t.Fatalf("%d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
		}
		for i := range want {
			if !strings.HasPrefix(lines[i], want[i]) {
				t.Errorf("line %d = %q, want prefix %q", i, lines[i], want[i])
			}
		}
	}

	// `replay`: seven live in-process shards, one vantage point each.
	vps := synth.AllVantagePoints()
	replayRun := cluster.Stats{
		Bridge: replay.Stats{Keys: 30, Rows: 600, Retries: 1, LostRows: 7},
		Streams: map[uint32]replay.Stats{
			0: {Keys: 10, Rows: 200},
			6: {Keys: 20, Rows: 400, Retries: 1, LostRows: 7},
		},
	}
	part := map[synth.VantagePoint]int{}
	for i, vp := range vps {
		part[vp] = i
		replayRun.Shards = append(replayRun.Shards, cluster.ShardStatus{Shard: i, Stream: uint32(i)})
	}
	replayRun.Shards[0].Pump = replay.PumpStats{Requests: 10, RowsSent: 200}
	replayRun.Shards[6].Pump = replay.PumpStats{Requests: 21, RowsSent: 407}
	expect(render(replayRun, part),
		"wire bridge: 30 buckets, 600 rows verified, 1 retries, 7 rows lost, 0 orphan rows, 0 decode errors",
		"  shard 0 [ISP-CE] (live): 10 buckets, 200 rows, 0 retries, 0 rows lost",
		"  shard 1 [IXP-CE] (live): 0 buckets, 0 rows",
		"  shard 2 [IXP-SE] (live)", "  shard 3 [IXP-US] (live)", "  shard 4 [MOBILE] (live)", "  shard 5 [IPX] (live)",
		"  shard 6 [EDU] (live): 20 buckets, 400 rows, 1 retries, 7 rows lost",
		"wire pump: 31 requests, 607 rows exported, 0 nacks")

	// `cluster -shards 3 -chaos …`: shard 1 died and its vantage points
	// moved; its counters are those of its pump before the kill.
	clusterRun := cluster.Stats{
		Bridge:  replay.Stats{Keys: 9, Rows: 90, Retries: 4},
		Streams: map[uint32]replay.Stats{0: {Keys: 5, Rows: 50}, 1: {Keys: 1, Rows: 10, Retries: 4}, 2: {Keys: 3, Rows: 30}},
		Shards: []cluster.ShardStatus{
			{Shard: 0, Stream: 0, Pump: replay.PumpStats{Requests: 5, RowsSent: 50}},
			{Shard: 1, Stream: 1, Dead: true},
			{Shard: 2, Stream: 2, Pump: replay.PumpStats{Requests: 4, RowsSent: 30, Nacks: 1}},
		},
		Rebalances: []cluster.RebalanceEvent{{From: 1, Reason: "pump stopped",
			Moved: map[synth.VantagePoint]int{synth.IXPCE: 0, synth.Mobile: 2}}},
		Chaos: &faultinject.RelayStats{Total: faultinject.Counts{Seen: 100, Dropped: 5}},
	}
	for i, vp := range vps {
		part[vp] = i % 3
	}
	part[synth.IXPCE], part[synth.Mobile] = 0, 2
	expect(render(clusterRun, part),
		"wire bridge: 9 buckets, 90 rows verified, 4 retries",
		"  shard 0 [ISP-CE IXP-CE IXP-US EDU] (live): 5 buckets, 50 rows",
		"  shard 1 [] (DEAD): 1 buckets, 10 rows, 4 retries",
		"  shard 2 [IXP-SE MOBILE IPX] (live): 3 buckets",
		"  rebalance: shard 1 (pump stopped), 2 vantage points moved",
		"  chaos relay: 100 datagrams, 5 dropped",
		"wire pump: 9 requests, 80 rows exported, 1 nacks")
}

// TestReplayPumpMatchesBridge: in a loss-free replay every bucket is
// requested once and exported once, so the `wire pump:` line must count
// exactly the `wire bridge:` line's buckets and rows. The bridge completes
// a bucket on its row count, before the pump has counted the rows it
// sent, so this holds only because the stats are read after the pumps
// stop. CI runs it with -count=20.
func TestReplayPumpMatchesBridge(t *testing.T) {
	silence(t, &os.Stdout)
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	t.Cleanup(func() { os.Stderr = old })
	if err := run(context.Background(), []string{"replay", "-scale", "0.05", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	os.Stderr = old
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	count := func(pattern string) []int64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindSubmatch(out)
		if m == nil {
			t.Fatalf("no match for %q in:\n%s", pattern, out)
		}
		var n []int64
		for _, g := range m[1:] {
			v, _ := strconv.ParseInt(string(g), 10, 64)
			n = append(n, v)
		}
		return n
	}
	bridge := count(`wire bridge: (\d+) buckets, (\d+) rows verified, (\d+) retries`)
	pump := count(`wire pump: (\d+) requests, (\d+) rows exported`)
	if retries := bridge[2]; retries != 0 {
		t.Fatalf("%d retries on loopback; the run was not loss-free:\n%s", retries, out)
	}
	if pump[0] != bridge[0] || pump[1] != bridge[1] {
		t.Errorf("pump: %d requests, %d rows exported; bridge: %d buckets, %d rows verified",
			pump[0], pump[1], bridge[0], bridge[1])
	}
}

// flagModes names, for every flag, the modes that take it, its default,
// another value, and who sets it outside the tests: a repo path whose text
// passes the flag, or "why: " and the one-line reason it stays anyway. It
// is kept by hand, apart from the mode table it checks.
var flagModes = map[string]struct{ modes, def, other, setBy string }{
	"scale":        {"run all doc scenario-run replay cluster", "0.5", "0.25", "bench/defs.go"},
	"seed":         {"run all doc scenario-run replay cluster", "0", "7", "bench/defs.go"},
	"cache-budget": {"run all doc scenario-run replay cluster", "16M", "1M", "bench/defs.go"},
	"cache-dir":    {"run all doc scenario-run replay cluster", "", "d", "bench/defs.go"},
	"cpuprofile":   {"run all doc scenario-run replay cluster", "", "f", "why: the profiler stays until live metrics answer the questions it does"},
	"memprofile":   {"run all doc scenario-run replay cluster", "", "f", "why: the profiler stays until live metrics answer the questions it does"},
	"metrics-addr": {"run all doc scenario-run replay cluster", "", ":0", ".github/workflows/ci.yml"},
	"trace":        {"run all doc scenario-run replay cluster", "", "f", ".github/workflows/ci.yml"},
	"csv":          {"run all scenario-run replay cluster", "false", "true", "why: an output format of the suite, not tuning"},
	"json":         {"run all scenario-run replay cluster", "false", "true", "why: an output format of the suite, not tuning"},
	"parallel":     {"all doc scenario-run replay cluster", "0", "2", "bench/defs.go"},
	"format":       {"replay cluster", "ipfix", "v9", "bench/defs.go"},
	"shards":       {"cluster", "4", "2", ".github/workflows/ci.yml"},
	"chaos":        {"cluster", "", "drop=0.1", ".github/workflows/ci.yml"},
}

// fieldSetters is the same census for the structs a run is configured
// through: every field names a non-test file that sets it, or why it stays.
var fieldSetters = map[string]string{
	"core.Options.FlowScale":   "cmd/lockdown/main.go",
	"core.Options.Seed":        "cmd/lockdown/main.go",
	"core.Options.CacheBudget": "cmd/lockdown/main.go",
	"core.Options.CacheDir":    "cmd/lockdown/main.go",
	"core.Options.Model":       "cmd/lockdown/main.go",
	"core.Options.Obs":         "cmd/lockdown/main.go",
	"core.Options.Tracer":      "cmd/lockdown/main.go",

	"cluster.Spec.Shards":         "cmd/lockdown/main.go",
	"cluster.Spec.Format":         "cmd/lockdown/main.go",
	"cluster.Spec.Options":        "cmd/lockdown/main.go",
	"cluster.Spec.AttemptTimeout": "why: tests shorten or lengthen the bridge's timers through it",
	"cluster.Spec.FetchBudget":    "why: tests shorten or lengthen the bridge's timers through it",
	"cluster.Spec.Chaos":          "cmd/lockdown/main.go",

	"replay.Config.Format":         "internal/cluster/cluster.go",
	"replay.Config.Options":        "internal/cluster/cluster.go",
	"replay.Config.Route":          "internal/cluster/cluster.go",
	"replay.Config.AttemptTimeout": "internal/cluster/cluster.go",
	"replay.Config.FetchBudget":    "internal/cluster/cluster.go",

	"replay.PumpConfig.Format":   "internal/cluster/cluster.go",
	"replay.PumpConfig.DataAddr": "internal/cluster/cluster.go",
	"replay.PumpConfig.Stream":   "internal/cluster/cluster.go",
	"replay.PumpConfig.Options":  "internal/cluster/cluster.go",
}

// checkSetter fails unless setBy is a reason or a repo file whose text
// matches set.
func checkSetter(t *testing.T, what, setBy string, set *regexp.Regexp) {
	t.Helper()
	if reason, ok := strings.CutPrefix(setBy, "why: "); ok {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: empty reason", what)
		}
		return
	}
	if setBy == "" || strings.HasSuffix(setBy, "_test.go") {
		t.Errorf("%s: setter %q is no non-test file; name one or give a reason (\"why: …\")", what, setBy)
		return
	}
	text, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(setBy)))
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if !set.Match(text) {
		t.Errorf("%s: %s no longer sets it (no match for %s)", what, setBy, set)
	}
}

// TestFlagCensus: every flag any mode registers has a row in flagModes,
// and its named setter still passes it — `-addr` must not count as
// `-metrics-addr`. A new flag fails here until it names one or a reason.
func TestFlagCensus(t *testing.T) {
	registered := map[string]bool{}
	for _, m := range modes {
		m.flagSet(new(options)).VisitAll(func(f *flag.Flag) { registered[f.Name] = true })
	}
	for name := range registered {
		if _, ok := flagModes[name]; !ok {
			t.Errorf("-%s has no census row", name)
		}
	}
	for name, fm := range flagModes {
		if !registered[name] {
			t.Errorf("census row -%s names a flag no mode registers", name)
		}
		set := regexp.MustCompile(`(?m)(^|[\s"'])-` + regexp.QuoteMeta(name) + `([\s="']|$)`)
		checkSetter(t, "-"+name, fm.setBy, set)
	}
}

// TestFieldCensus: every field of core.Options, cluster.Spec,
// replay.Config and replay.PumpConfig has a row in fieldSetters, and the
// named file still sets it — as a keyed literal, an assignment or a flag
// binding. A new field fails here until it names a setter or a reason.
func TestFieldCensus(t *testing.T) {
	fields := map[string]bool{}
	for _, v := range []any{core.Options{}, cluster.Spec{}, replay.Config{}, replay.PumpConfig{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			fields[typ.String()+"."+typ.Field(i).Name] = true
		}
	}
	for f := range fields {
		if _, ok := fieldSetters[f]; !ok {
			t.Errorf("%s has no census row", f)
		}
	}
	for f, setBy := range fieldSetters {
		if !fields[f] {
			t.Errorf("census row %s names a field that does not exist", f)
			continue
		}
		name := regexp.QuoteMeta(f[strings.LastIndex(f, ".")+1:])
		set := regexp.MustCompile(`\b` + name + `:|\.` + name + `(, \w+)? =[^=]|&[\w.]+\.` + name + `\b`)
		checkSetter(t, f, setBy, set)
	}
}

// docModes maps the group headings of main.go's package comment and the
// "Applies to" cells of README's flag table to the modes they mean.
var docModes = map[string]string{
	"run, all, doc, replay, cluster, scenario run": "run all doc scenario-run replay cluster",
	"all commands": "run all doc scenario-run replay cluster",
	"All of those but doc, which always emits markdown": "run all scenario-run replay cluster",
	"all but doc":          "run all scenario-run replay cluster",
	"All of those but run": "all doc scenario-run replay cluster",
	"all but run":          "all doc scenario-run replay cluster",
	"replay, cluster":      "replay cluster",
	"cluster":              "cluster",
}

// TestFlagDocs: the flags each mode registers are exactly the -flag
// entries main.go's package comment and README's flag table list for it,
// so neither can keep a deleted flag or miss a new one.
func TestFlagDocs(t *testing.T) {
	registered := map[string][]string{}
	for _, m := range modes {
		name := strings.ReplaceAll(m.name, " ", "-")
		m.flagSet(new(options)).VisitAll(func(f *flag.Flag) {
			registered[name] = append(registered[name], f.Name)
		})
	}
	compare := func(doc string, documented map[string][]string) {
		t.Helper()
		for mode, flags := range registered {
			got := slices.Sorted(slices.Values(documented[mode]))
			if want := slices.Sorted(slices.Values(flags)); !slices.Equal(got, want) {
				t.Errorf("%s lists for %s %v; it registers %v", doc, mode, got, want)
			}
		}
	}
	read := func(path string) []string {
		t.Helper()
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(text), "\n")
	}
	add := func(doc string, documented map[string][]string, group, flag string) {
		t.Helper()
		modes, ok := docModes[group]
		if !ok {
			t.Errorf("%s: -%s is under %q, which names no known modes", doc, flag, group)
		}
		for _, mode := range strings.Fields(modes) {
			documented[mode] = append(documented[mode], flag)
		}
	}

	// The package comment: "// <modes>:" headings over "//\t-flag" lines.
	pkg := map[string][]string{}
	heading := regexp.MustCompile(`^// (\S.*):$`)
	entry := regexp.MustCompile(`^//\t-([a-z-]+)`)
	group := ""
	for _, line := range read("main.go") {
		if line == "package main" {
			break
		}
		if m := heading.FindStringSubmatch(line); m != nil {
			group = m[1]
		} else if m := entry.FindStringSubmatch(line); m != nil {
			add("main.go", pkg, group, m[1])
		}
	}
	compare("main.go's package comment", pkg)

	// README's table: "| `-flag value` | <modes or same> | … |".
	readme := map[string][]string{}
	row := regexp.MustCompile("^\\| `-([a-z-]+)[^`]*` \\| ([^|]+) \\|")
	group = ""
	for _, line := range read(filepath.Join("..", "..", "README.md")) {
		if m := row.FindStringSubmatch(line); m != nil {
			if m[2] != "same" {
				group = m[2]
			}
			add("README.md", readme, group, m[1])
		}
	}
	compare("README's flag table", readme)
}

// TestFlagsRejectedOutsideTheirMode: a mode registers exactly the flags it
// takes, so any other is refused as an unknown flag — a usage error, before
// the scenario file is opened or anything runs — whether it is set to its
// default or to something else.
func TestFlagsRejectedOutsideTheirMode(t *testing.T) {
	silence(t, &os.Stderr) // the flag package prints the mode's usage on every refusal

	if len(flagModes) != 14 {
		t.Errorf("%d distinct flags, want 14", len(flagModes))
	}
	for _, m := range modes {
		name := strings.ReplaceAll(m.name, " ", "-")
		args := strings.Fields(m.name)
		if m.arg != "" {
			args = append(args, filepath.Join(t.TempDir(), "never-opened"))
		}
		fs := m.flagSet(new(options))
		n := 0
		fs.VisitAll(func(f *flag.Flag) {
			n++
			if _, ok := flagModes[f.Name]; !ok {
				t.Errorf("%s registers -%s, which the table does not know", m.name, f.Name)
			}
		})
		if n != len(m.flags) {
			t.Errorf("%s lists %d flags and registers %d", m.name, len(m.flags), n)
		}
		for flagName, fm := range flagModes {
			takes := slices.Contains(strings.Fields(fm.modes), name)
			if f := fs.Lookup(flagName); takes != (f != nil) {
				t.Errorf("%s registers -%s: %v, want %v", m.name, flagName, f != nil, takes)
			}
			if takes {
				continue
			}
			for _, value := range []string{fm.def, fm.other} {
				line := append(slices.Clone(args), "-"+flagName+"="+value)
				err := run(context.Background(), line)
				var ue usageError
				if !errors.As(err, &ue) || !strings.Contains(err.Error(), "not defined: -"+flagName) {
					t.Errorf("%v = %v, want an unknown-flag usage error", line, err)
				}
			}
		}
	}
}

// TestRefusedCommandLinesAreUsageErrors: what the flag package lets through
// and check refuses is a usage error too, raised before anything runs.
func TestRefusedCommandLinesAreUsageErrors(t *testing.T) {
	silence(t, &os.Stderr)
	for _, line := range []string{
		"", "frobnicate", "run", "scenario", "scenario frobnicate", "cache compact d",
		"all -csv -json", "all -bogus", "all -cache-budget 5x", "replay -unverified",
		"all -cache-budget 17179869184G", "all -cache-budget 9999999999G",
		"replay -format v7", "cluster -shards 0", "cluster -shards -3", "cluster -chaos drop=NaN",
		"all -parallel -3",
		"cluster -shards 3 -chaos kill=shard3@t+1s",
		// Removed commands, flags, formats and faults stay refused.
		"replay -format v5", "cluster -format nf5", "cluster -chaos delay=5ms",
		"pump -data 127.0.0.1:9", "cluster -subprocess", "replay -pps 100", "cluster -pps 0",
		"replay -max-attempts 2", "cluster -max-restarts 1", "replay -allow-partial",
		"all -scan-chunk -5", "replay -attempt-timeout -1s", "replay -fetch-budget -1s",
		"replay -addr 127.0.0.1:9", "cluster -fetch-budget 1s",
	} {
		err := run(context.Background(), strings.Fields(line))
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("lockdown %s = %v, want a usage error", line, err)
		}
	}
}

// TestScaleFlagRejected: a -scale that is NaN, infinite or negative is a
// usage error (exit 2) in every mode that takes the flag, raised before
// the scenario file is opened or an engine built; 0 still selects the
// default density.
func TestScaleFlagRejected(t *testing.T) {
	modes := [][]string{
		{"run", "fig9"}, {"all"}, {"doc"}, {"replay"}, {"cluster"},
		{"scenario", "run", filepath.Join(t.TempDir(), "never-opened.yaml")},
	}
	for _, mode := range modes {
		for _, v := range []string{"NaN", "+Inf", "-Inf", "-0.5"} {
			args := append(append([]string(nil), mode...), "-scale="+v)
			err := run(context.Background(), args)
			var ue usageError
			if !errors.As(err, &ue) || !strings.Contains(err.Error(), "-scale") {
				t.Errorf("%v = %v, want a -scale usage error", args, err)
			}
		}
	}

	silence(t, &os.Stdout)
	if err := run(context.Background(), []string{"run", "fig3a", "-scale", "0"}); err != nil {
		t.Errorf("-scale 0 selects the default and must run: %v", err)
	}
}
