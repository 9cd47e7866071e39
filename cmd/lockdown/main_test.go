package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"lockdown/internal/cluster"
	"lockdown/internal/collector"
	"lockdown/internal/core"
	"lockdown/internal/faultinject"
	"lockdown/internal/obs"
	"lockdown/internal/replay"
	"lockdown/internal/report"
	"lockdown/internal/synth"
)

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

// output runs the command line args in process and returns what it wrote
// to *f, os.Stdout or os.Stderr; the other is silenced.
func output(t *testing.T, f **os.File, args ...string) []byte {
	t.Helper()
	if f == &os.Stdout {
		silence(t, &os.Stderr)
	} else {
		silence(t, &os.Stdout)
	}
	tmp, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := *f
	*f = tmp
	err = run(context.Background(), args)
	*f = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ciGreps returns the submatches of every match of the selector re in CI's
// workflow, failing unless there are want of them. A selector is a string
// literal that begins with "grep ", so TestCIGrepCensus can find it and
// tell which of CI's greps are read.
func ciGreps(t *testing.T, re string, want int) [][]string {
	t.Helper()
	var got [][]string
	for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(string(readRepo(t, ".github/workflows/ci.yml")), -1) {
		got = append(got, m[1:])
	}
	if len(got) != want {
		t.Fatalf("CI greps %q for %d patterns, want %d: %q", re, len(got), want, got)
	}
	return got
}

// readRepo returns the file at path, relative to the repository root.
func readRepo(t *testing.T, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(path)))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// grepCount counts the lines of out that pattern, one of CI's extended
// regular expressions, matches, as grep -c does.
func grepCount(pattern, out string) int {
	re := regexp.MustCompile(pattern)
	n := 0
	for _, line := range strings.Split(out, "\n") {
		if re.MatchString(line) {
			n++
		}
	}
	return n
}

// ciUnread names the greps of CI's workflow that read no output of this
// program, by selector, each with the reason.
var ciUnread = map[string]string{
	`grep -o '[^']*' \| grep -o '[^']*'`: "why: the coverage floors parse the output of go test -cover",
}

// TestCIGrepCensus: every grep in CI's workflow is read by exactly one
// selector, a string literal beginning with "grep " in this package's tests
// (which hand it to ciGreps) or a ciUnread key, and every match of a
// selector covers a grep. A new grep fails here until a test reads it.
func TestCIGrepCensus(t *testing.T) {
	selectors := map[string]string{} // selector → the declaration holding it
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			holder := "a declaration of " + file
			if fd, ok := d.(*ast.FuncDecl); ok {
				holder = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(v, "grep ") && v != "grep " {
						selectors[v] = holder
					}
				}
				return true
			})
		}
	}
	for sel, why := range ciUnread {
		selectors[sel] = "ciUnread"
		if !strings.HasPrefix(why, "why: ") || strings.TrimSpace(why[len("why: "):]) == "" {
			t.Errorf("ciUnread %q: want \"why: \" and a reason, got %q", sel, why)
		}
	}

	ci := string(readRepo(t, ".github/workflows/ci.yml"))
	var greps []int // the offset of every grep outside a comment
	for _, loc := range regexp.MustCompile(`\bgrep\b`).FindAllStringIndex(ci, -1) {
		line := ci[strings.LastIndex(ci[:loc[0]], "\n")+1 : loc[0]]
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			greps = append(greps, loc[0])
		}
	}
	readers := map[int][]string{}
	for sel, holder := range selectors {
		for _, loc := range regexp.MustCompile(sel).FindAllStringIndex(ci, -1) {
			covered := 0
			for _, g := range greps {
				if loc[0] <= g && g < loc[1] {
					readers[g] = append(readers[g], holder)
					covered++
				}
			}
			if covered == 0 {
				t.Errorf("%s's selector %q matches CI text that is no grep: %q", holder, sel, ci[loc[0]:loc[1]])
			}
		}
	}
	for _, g := range greps {
		line, _, _ := strings.Cut(ci[g:], "\n")
		switch r := readers[g]; len(r) {
		case 0:
			t.Errorf("no test reads CI's %q; read it through ciGreps, or give ciUnread a reason", line)
		case 1:
		default:
			t.Errorf("CI's %q is read by %d selectors (%v); want one", line, len(r), r)
		}
	}
}

// TestTraceSummaryLine: a traced run ends its stderr with the line CI's
// observability step greps for.
func TestTraceSummaryLine(t *testing.T) {
	pattern := ciGreps(t, `grep -Eq '(trace: [^']*)' /tmp/obs_err\.txt`, 1)[0][0]
	out := output(t, &os.Stderr, "run", "tab1", "-scale", "0.05", "-trace", filepath.Join(t.TempDir(), "t.json"))
	if grepCount(pattern, string(out)) != 1 {
		t.Errorf("stderr does not match CI's %q:\n%s", pattern, out)
	}
}

// scrape returns what srv serves at /metrics.
func scrape(t *testing.T, srv *obs.Server) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsFamilies: a /metrics scrape of an engine's registry serves
// every family CI's observability step greps for, before any experiment
// has run.
func TestMetricsFamilies(t *testing.T) {
	families := ciGreps(t, `grep -q '\^(lockdown_[a-z_]+)' /tmp/scrape\.txt`, 5)
	reg := obs.NewRegistry()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	engine := core.NewEngine(core.Options{Obs: reg})
	defer engine.Data().Close()
	body := scrape(t, srv)
	for _, f := range families {
		if !regexp.MustCompile(`(?m)^` + f[0]).MatchString(body) {
			t.Errorf("scrape has no line starting %s:\n%s", f[0], body)
		}
	}
}

// TestMetricCatalog: the families a scrape serves once every instrumented
// subsystem is up on one registry — the engine with its dataset cache and
// span store, a cluster with a chaos relay and a stream, whose bridge and
// collector register theirs, and the metrics server's own — are exactly
// the rows of ARCHITECTURE.md's metric catalog: name, type, label and the
// help text as what it counts.
func TestMetricCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	engine := core.NewEngine(core.Options{Obs: reg})
	defer engine.Data().Close()
	faults, err := faultinject.ParseSpec("drop=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Spec{Shards: 1, Format: collector.FormatIPFIX, Options: core.Options{Obs: reg}, Chaos: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}

	type family struct{ kind, label, help string }
	served := map[string]*family{}
	get := func(name string) *family {
		if served[name] == nil {
			served[name] = &family{label: "—"}
		}
		return served[name]
	}
	for _, line := range strings.Split(scrape(t, srv), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			get(name).kind = kind
		} else if name, label, ok := strings.Cut(line, "{"); ok && served[name] != nil {
			label, _, _ = strings.Cut(label, "=")
			served[name].label = "`" + label + "`"
		}
	}
	row := func(name string, f *family) string {
		return fmt.Sprintf("| `%s` | %s | %s | %s |", name, f.kind, f.label, f.help)
	}
	documented := map[string]string{}
	for _, line := range strings.Split(string(readRepo(t, "docs/ARCHITECTURE.md")), "\n") {
		if m := regexp.MustCompile("^\\| `(lockdown_[a-z_]+)` \\|").FindStringSubmatch(line); m != nil {
			documented[m[1]] = line
		}
	}
	for name, f := range served {
		switch want, got := row(name, f), documented[name]; got {
		case want:
		case "":
			t.Errorf("ARCHITECTURE.md's metric catalog has no row for the served family\n%s", want)
		default:
			t.Errorf("ARCHITECTURE.md's metric catalog row\n%s\nis not the served family's\n%s", got, want)
		}
	}
	for name, line := range documented {
		if served[name] == nil {
			t.Errorf("ARCHITECTURE.md's metric catalog lists a family nothing registers:\n%s", line)
		}
	}
}

// TestSuiteEvents: the stderr summary of a suite run is one line, the
// dataset cache's entries, hits and misses; a suite run holds no flow
// batch, so there is no tier to report.
func TestSuiteEvents(t *testing.T) {
	var out strings.Builder
	if err := report.WriteEvents(&out, suiteEvents(core.CacheStats{Entries: 218, Hits: 66, Misses: 218})); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "dataset cache: 218 entries, 66 hits, 218 misses\n"; got != want {
		t.Errorf("suite summary %q, want %q", got, want)
	}
}

// TestWireEvents: the wire summary carries the bridge totals, one indented
// line per shard naming the vantage points it owns (idle shards included,
// so one that served nothing is visible as such), rebalances and chaos
// totals when there were any, and a single pump line holding the pumps'
// counters summed over all shards. The loss-free runs match every grep CI
// reads a `replay` or `cluster -shards 3` run's stderr with.
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
	// fleet is a loss-free run of the suite's 201 keys over n live shards,
	// vantage point i on shard i mod n; only shards 0 and n-1 served.
	fleet := func(n int) (cluster.Stats, map[synth.VantagePoint]int) {
		stats := cluster.Stats{
			Bridge:  replay.Stats{Keys: 201, Rows: 600},
			Streams: map[uint32]replay.Stats{0: {Keys: 61, Rows: 200}, uint32(n - 1): {Keys: 140, Rows: 400}},
		}
		for i := 0; i < n; i++ {
			stats.Shards = append(stats.Shards, cluster.ShardStatus{Shard: i, Stream: uint32(i)})
		}
		stats.Shards[0].Pump = replay.PumpStats{Requests: 61, RowsSent: 200}
		stats.Shards[n-1].Pump = replay.PumpStats{Requests: 140, RowsSent: 400}
		part := map[synth.VantagePoint]int{}
		for i, vp := range synth.AllVantagePoints() {
			part[vp] = i % n
		}
		return stats, part
	}

	// `replay`: seven live shards, one vantage point each.
	replayLines := render(fleet(7))
	expect(replayLines,
		"wire bridge: 201 buckets, 600 rows verified, 0 retries, 0 rows lost, 0 orphan rows, 0 decode errors",
		"  shard 0 [ISP-CE] (live): 61 buckets, 200 rows, 0 retries, 0 rows lost",
		"  shard 1 [IXP-CE] (live): 0 buckets, 0 rows",
		"  shard 2 [IXP-SE] (live)", "  shard 3 [IXP-US] (live)", "  shard 4 [MOBILE] (live)", "  shard 5 [IPX] (live)",
		"  shard 6 [EDU] (live): 140 buckets, 400 rows, 0 retries, 0 rows lost",
		"wire pump: 201 requests, 600 rows exported, 0 nacks")
	// `cluster -shards 3`, where CI wants every shard to have served.
	three, part := fleet(3)
	three.Streams[1] = replay.Stats{Keys: 1, Rows: 1}
	runs := map[string]string{"replay": strings.Join(replayLines, "\n"), "cluster": strings.Join(render(three, part), "\n")}
	// Each grep wants one line, or as many as the count CI compares its
	// -c to.
	for _, m := range ciGreps(t, `grep -c?q?E '(\^[^']*)' /tmp/(replay|cluster)_[^)\s]*(?:\)" = (\d+))?`, 6) {
		want := m[2]
		if want == "" {
			want = "1"
		}
		if got := strconv.Itoa(grepCount(m[0], runs[m[1]])); got != want {
			t.Errorf("CI's %q matches %s lines of the %s run, want %s:\n%s", m[0], got, m[1], want, runs[m[1]])
		}
	}

	// `cluster -shards 3 -chaos …`: shard 1 died and its vantage points
	// moved; its counters are those of its pump before the kill.
	clusterRun := cluster.Stats{
		Bridge:  replay.Stats{Keys: 9, Rows: 90, Retries: 4, LostRows: 7},
		Streams: map[uint32]replay.Stats{0: {Keys: 5, Rows: 50}, 1: {Keys: 1, Rows: 10, Retries: 4, LostRows: 7}, 2: {Keys: 3, Rows: 30}},
		Shards: []cluster.ShardStatus{
			{Shard: 0, Stream: 0, Pump: replay.PumpStats{Requests: 5, RowsSent: 50}},
			{Shard: 1, Stream: 1, Dead: true},
			{Shard: 2, Stream: 2, Pump: replay.PumpStats{Requests: 4, RowsSent: 30, Nacks: 1}},
		},
		Rebalances: []cluster.RebalanceEvent{{From: 1, Reason: "pump stopped",
			Moved: map[synth.VantagePoint]int{synth.IXPCE: 0, synth.Mobile: 2}}},
		Chaos: &faultinject.RelayStats{Total: faultinject.Counts{Seen: 100, Dropped: 5}},
	}
	part[synth.IXPCE], part[synth.Mobile] = 0, 2
	expect(render(clusterRun, part),
		"wire bridge: 9 buckets, 90 rows verified, 4 retries, 7 rows lost",
		"  shard 0 [ISP-CE IXP-CE IXP-US EDU] (live): 5 buckets, 50 rows",
		"  shard 1 [] (DEAD): 1 buckets, 10 rows, 4 retries, 7 rows lost",
		"  shard 2 [IXP-SE MOBILE IPX] (live): 3 buckets",
		"  rebalance: shard 1 (pump stopped), 2 vantage points moved",
		"  chaos relay: 100 datagrams, 5 dropped",
		"wire pump: 9 requests, 80 rows exported, 1 nacks")
}

// TestValidateIdentityLine: `scenario validate` prints the word CI's
// gallery step greps for on default.yaml, and on no other gallery file.
func TestValidateIdentityLine(t *testing.T) {
	word := ciGreps(t, `grep -q (\w+)`, 1)[0][0]
	for file, want := range map[string]bool{"default.yaml": true, "wave2.yaml": false, "outage.yaml": false, "flash-event.yaml": false} {
		out := output(t, &os.Stdout, "scenario", "validate", filepath.Join("..", "..", "examples", "scenarios", file))
		if got := grepCount(word, string(out)) > 0; got != want {
			t.Errorf("scenario validate %s printed %q; CI's %q matches: %v, want %v", file, out, word, got, want)
		}
	}
}

// TestReplayPumpMatchesBridge: in a loss-free replay every bucket is
// requested once and exported once, so the `wire pump:` line must count
// exactly the `wire bridge:` line's buckets and rows. The bridge completes
// a bucket on its row count, before the pump has counted the rows it
// sent, so this holds only because the stats are read after the pumps
// stop. CI runs it with -count=20.
func TestReplayPumpMatchesBridge(t *testing.T) {
	out := output(t, &os.Stderr, "replay", "-scale", "0.05", "-parallel", "2")
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
	"cache-budget": {"run all doc scenario-run replay cluster", "", "1", "bench/defs.go"},
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

// exportWhy names the exported functions and methods of internal/ that no
// non-test file calls, each with the reason it stays. A name the census
// counts as used through a collision (flowrec.Record.Validate) carries its
// reason in its doc comment instead.
var exportWhy = map[string]string{
	// Scalar oracles: the row kernels are compared against them.
	"appclass.Classifier.ClassifyAt": "why: the per-row oracle of VolumeByClassInto (appclass.TestVolumeKernelsMatchRowPath)",
	"appclass.ClassifyEDUAt":         "why: the per-row oracle of EDUCounter (appclass.TestEDUCountKernelMatchesRowPath)",
	"vpndetect.Detector.ClassifyAt":  "why: the per-row oracle of the lane scan (vpndetect.TestMethodLanesMatchClassifyAt)",
	"flowrec.Record.ServerPort":      "why: the per-record oracle of Batch.ServerPortAt (flowrec.TestServerPortLanesQuick)",

	// Test tools.
	"collector.CollectBatch":         "why: the collector tests read an export back through it (collector.TestRoundTripV9)",
	"collector.Exporter.ExportBatch": "why: the collector tests export a batch stamped now (collector.TestRoundTripV9)",
	"flowrec.FromRecords":            "why: tests build batches from record literals",
	"flowrec.Batch.Records":          "why: the codec golden tests compare decoded rows as records (ipfix.TestGoldenPackets)",
	"flowrec.Batch.Project":          "why: tests compare a batch with a full-width one in its columns (core.TestProjectedSuiteEqualsFullWidth)",
	"synth.MustNewDefault":           "why: tests and the root benchmarks build a default generator without error plumbing",

	// The harness of the replay and cluster golden tests.
	"goldentest.RunSuite":     "why: the golden tests' shared harness (replay.TestGolden*, cluster.TestGolden*)",
	"goldentest.HoldsNoBatch": "why: the golden tests' shared draw-count contract (replay.TestGolden*, cluster.TestGolden*)",
}

// declKey names a top-level function or method as pkg.Name or
// pkg.Type.Name.
func declKey(pkg string, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkg + "." + d.Name.Name
	}
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if generic, ok := typ.(*ast.IndexExpr); ok {
		typ = generic.X
	}
	return pkg + "." + typ.(*ast.Ident).Name + "." + d.Name.Name
}

// TestExportCensus: every exported function and method declared in a
// non-test file of internal/ is referenced by a non-test file of
// internal/, cmd/, bench/ or examples/ outside its own declaration, is
// String, Error or Unwrap, or has an exportWhy reason. The scan is
// syntactic: a `.Name` selector anywhere counts for every method or
// function of that name, and a bare Name counts within its own package,
// so a name collision can hide a dead export but never flags live code.
// A why: entry whose name is gone or now has a non-test use fails too.
func TestExportCensus(t *testing.T) {
	type decl struct{ dir, name string }
	decls := map[string]decl{}                // key → where and what
	selectors := map[string]map[string]bool{} // Name → the declarations holding a .Name
	bare := map[decl]map[string]bool{}        // (dir, Name) → the declarations holding a bare Name
	note := func(m map[string]bool, encl string) map[string]bool {
		if m == nil {
			m = map[string]bool{}
		}
		m[encl] = true
		return m
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(filepath.Join("..", "..", root), func(path string, e os.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			for _, d := range f.Decls {
				encl, self := "", (*ast.Ident)(nil) // the name that declares encl is no use of it
				if fd, ok := d.(*ast.FuncDecl); ok {
					encl, self = declKey(f.Name.Name, fd), fd.Name
					if root == "internal" && fd.Name.IsExported() {
						decls[encl] = decl{dir, fd.Name.Name}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						selectors[n.Sel.Name] = note(selectors[n.Sel.Name], encl)
					case *ast.Ident:
						if n != self {
							k := decl{dir, n.Name}
							bare[k] = note(bare[k], encl)
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := func(key string, d decl) bool {
		for _, users := range []map[string]bool{selectors[d.name], bare[d]} {
			for encl := range users {
				if encl != key {
					return true
				}
			}
		}
		return false
	}
	for key, d := range decls {
		_, why := exportWhy[key]
		switch {
		case d.name == "String" || d.name == "Error" || d.name == "Unwrap" || why:
		case !used(key, d):
			t.Errorf("%s (%s) is exported and nothing outside tests uses it; delete it or give exportWhy a reason", key, d.dir)
		}
	}
	for key, reason := range exportWhy {
		d, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("exportWhy names %s, which no longer exists", key)
		case used(key, d):
			t.Errorf("exportWhy names %s, which now has a non-test use; drop its entry", key)
		case !strings.HasPrefix(reason, "why: ") || strings.TrimSpace(reason[len("why: "):]) == "":
			t.Errorf("exportWhy %s: want \"why: \" and a reason, got %q", key, reason)
		}
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

// commandOf returns the command a "lockdown …" synopsis names: its words
// up to the first placeholder, option or flag.
func commandOf(synopsis string) string {
	var words []string
	for _, w := range strings.Fields(strings.TrimPrefix(synopsis, "lockdown ")) {
		if strings.ContainsAny(w[:1], "<[-") {
			break
		}
		words = append(words, w)
	}
	return strings.Join(words, " ")
}

// TestModeDocs: main.go's package comment, the help text run prints and
// README's command table name the same commands, and run accepts each of
// them rather than refusing it as an unknown command.
func TestModeDocs(t *testing.T) {
	lists := map[string][]string{}
	text, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	pkg, _, _ := strings.Cut(string(text), "\npackage main")
	for _, m := range regexp.MustCompile(`(?m)^//\t(lockdown .*?)  `).FindAllStringSubmatch(pkg, -1) {
		lists["main.go's package comment"] = append(lists["main.go's package comment"], commandOf(m[1]))
	}
	readme := readRepo(t, "README.md")
	for _, m := range regexp.MustCompile("(?m)^\\| `(lockdown [^`]*)` \\|").FindAllStringSubmatch(string(readme), -1) {
		lists["README's command table"] = append(lists["README's command table"], commandOf(m[1]))
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "help"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	err = run(context.Background(), []string{"help"})
	os.Stderr = old
	if err != nil {
		t.Fatal(err)
	}
	help, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	before, _, _ := strings.Cut(string(help), "experiments:")
	for _, m := range regexp.MustCompile(`(?m)^  (lockdown .*)$`).FindAllStringSubmatch(before, -1) {
		lists["the help text"] = append(lists["the help text"], commandOf(m[1]))
	}

	want := slices.Sorted(slices.Values(lists["the help text"]))
	if len(want) == 0 {
		t.Fatal("the help text lists no command")
	}
	for _, doc := range []string{"main.go's package comment", "README's command table"} {
		if got := slices.Sorted(slices.Values(lists[doc])); !slices.Equal(got, want) {
			t.Errorf("%s lists %q; the help text lists %q", doc, got, want)
		}
	}

	silence(t, &os.Stdout)
	silence(t, &os.Stderr)
	for _, command := range want {
		// A flag no command takes: a command run accepts refuses it, or
		// takes it for its argument, and starts nothing long.
		err := run(context.Background(), append(strings.Fields(command), "-no-such-flag"))
		if err != nil && strings.HasPrefix(err.Error(), "unknown ") {
			t.Errorf("lockdown %s: %v", command, err)
		}
	}
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
		"", "frobnicate", "run", "scenario", "scenario frobnicate",
		"all -csv -json", "all -bogus", "all -cache-budget 5x", "replay -unverified",
		"all -cache-budget 17179869184G", "all -cache-budget 9999999999G",
		"replay -format v7", "cluster -shards 0", "cluster -shards -3", "cluster -chaos drop=NaN",
		"all -parallel -3",
		"cluster -shards 3 -chaos kill=shard3@t+1s",
		// Removed commands, flags, formats and faults stay refused.
		"cache stat /tmp", "cache compact d",
		"replay -format v5", "cluster -format nf5", "cluster -chaos delay=5ms",
		"cluster -chaos reorder=0.01", "cluster -chaos corrupt=0.01", "cluster -chaos stall=shard0@t+1s:1s",
		"pump -data 127.0.0.1:9", "cluster -subprocess", "replay -pps 100", "cluster -pps 0",
		"replay -max-attempts 2", "cluster -max-restarts 1", "replay -allow-partial",
		"all -scan-chunk -5", "replay -attempt-timeout -1s", "replay -fetch-budget -1s",
		"replay -addr 127.0.0.1:9", "cluster -fetch-budget 1s",
		// Leftover words, and flags where a mode's argument belongs.
		"all -scale 0.1 bogus", "run fig1 extra -json", "run -scale 0.2 fig1", "doc extra",
		"replay -format v9 extra", "scenario run -seed 3 s.yaml", "scenario run s.yaml extra",
		"list extra", "scenario doc extra",
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
