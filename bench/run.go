package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lockdown/internal/core"
	"lockdown/internal/goldentest"
)

// harness is the state of one run: where the child binary and the private
// work dir are, and the environment they were measured in.
type harness struct {
	bin      string // the lockdown binary built from this checkout
	workDir  string
	spillDir string // -cache-dir of the spill workload, inside workDir
	env      envBlock
}

// buildChild compiles cmd/lockdown from the checkout the harness runs in.
// go build is a no-op when the binary is current, so every run pays it and
// none can measure a stale program.
func buildChild(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "lockdown"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/lockdown")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lockdown (run the harness from the module root): %w", err)
	}
	return bin, nil
}

// sample is what one child cost, from wait4's rusage.
type sample struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	RSSMB  float64 `json:"peak_rss_mb"`
	Nivcsw int64   `json:"involuntary_ctx_switches"`
	Failed int     `json:"ops_failed"`
}

// runChild starts one lockdown process, waits for it and returns its cost.
// Output goes to files in the work dir, so a full pipe never stalls the
// child. The child's ru_maxrss starts from the harness's own RSS (exec
// folds the parent's high-water mark in), which is why the harness does
// its in-process work only after the last child has exited.
func (h *harness) runChild(ctx context.Context, args []string, stdout string) (sample, error) {
	out, err := os.Create(stdout)
	if err != nil {
		return sample{}, err
	}
	defer out.Close()
	errOut, err := os.Create(stdout + ".stderr")
	if err != nil {
		return sample{}, err
	}
	defer errOut.Close()

	cmd := exec.CommandContext(ctx, h.bin, args...)
	cmd.Stdout, cmd.Stderr = out, errOut
	start := time.Now()
	runErr := cmd.Run()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		return sample{}, fmt.Errorf("start %s: %w", h.bin, runErr)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, fmt.Errorf("no rusage for the child on %s", runtime.GOOS)
	}
	s := sample{
		WallS:  wall.Seconds(),
		CPUS:   tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		RSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		Nivcsw: int64(ru.Nivcsw),
	}
	if runErr != nil {
		tail, _ := os.ReadFile(stdout + ".stderr")
		return s, fmt.Errorf("lockdown %s: %w\n%s", strings.Join(args, " "), runErr, lastLines(string(tail), 5))
	}
	return s, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// sections splits the text `lockdown all` prints into one piece per
// experiment, keyed by id. Each piece starts at its "== id — title =="
// line.
func sections(out string) map[string]string {
	secs := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			secs[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if name, _, ok := strings.Cut(rest, " — "); ok {
				flush()
				id = name
			}
		}
		cur.WriteString(line)
	}
	flush()
	return secs
}

// failedExperiments counts the experiments whose output is missing from
// got or differs from the reference modulo _runtime/* lines, and
// describes the first one.
func failedExperiments(ref, got map[string]string) (int, string) {
	failed, first := 0, ""
	for _, e := range core.All() {
		want, ok := ref[e.ID]
		d := "missing from the reference"
		if ok {
			have, ok := got[e.ID]
			d = "missing from the output"
			if ok {
				d = goldentest.DiffModuloRuntime(want, have)
			}
		}
		if d != "" {
			failed++
			if first == "" {
				first = e.ID + ": " + d
			}
		}
	}
	return failed, first
}

// summary is the distribution of one per-iteration quantity.
type summary struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{Min: minOf(v), Q1: q1, Median: med, Q3: q3, Max: maxOf(v)}
}

// result is everything one run prints; the last line of stdout repeats
// Correct, OpsAttempted, OpsFailed and Metrics in the driver's shape.
type result struct {
	Workload     string                 `json:"workload"`
	Why          string                 `json:"why"`
	Mode         string                 `json:"mode"` // "run" or "trace"
	Seed         int64                  `json:"seed"`
	Child        string                 `json:"child_command,omitempty"`
	Env          envBlock               `json:"environment"`
	Iterations   []sample               `json:"iterations,omitempty"`
	Wall         *summary               `json:"wall_s,omitempty"`
	CPU          *summary               `json:"cpu_s,omitempty"`
	SetupReps    []float64              `json:"setup_s_repetitions,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
	Correct      bool                   `json:"correct"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Problems     []string               `json:"problems,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
}

func (r *result) problem(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// measure is a plain run of one workload: the reference, then counted
// iterations, each followed by a short set-up timing child. Nothing here
// is traced.
func (h *harness) measure(ctx context.Context, w workload, seed int64, seconds int) (*result, error) {
	rep := &result{Workload: w.name, Why: w.why, Mode: "run", Seed: seed, Correct: true}
	args := w.childArgs(seed, h.spillDir)
	rep.Child = "lockdown " + strings.Join(args, " ")
	nExp := len(core.All())

	// The reference is one in-memory serial run at the workload's scale
	// and seed, made before the clock starts. It is also the warm-up: it
	// is the same binary reading the same pages, so the first counted
	// iteration is not the one that faults the program in.
	refPath := filepath.Join(h.workDir, "reference.txt")
	if _, err := h.runChild(ctx, w.referenceArgs(seed), refPath); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	refText, err := os.ReadFile(refPath)
	if err != nil {
		return nil, err
	}
	ref := sections(string(refText))
	if len(ref) != nExp {
		return nil, fmt.Errorf("reference run printed %d experiments, want %d", len(ref), nExp)
	}
	if seed == 0 {
		if err := h.checkDoc(ctx); err != nil {
			rep.problem("%v", err)
		}
	}

	h.env.CalibS = calibrate()
	rep.Env = h.env

	outPath := filepath.Join(h.workDir, "iteration.txt")
	window := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < window; i++ {
		if time.Since(start) > hardStopSeconds*time.Second {
			break
		}
		s, err := h.runChild(ctx, args, outPath)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			s.Failed = nExp
			rep.problem("iteration %d: %v", i+1, err)
		} else {
			got, err := os.ReadFile(outPath)
			if err != nil {
				return nil, err
			}
			var first string
			if s.Failed, first = failedExperiments(ref, sections(string(got))); s.Failed > 0 {
				rep.problem("iteration %d: %d experiments differ from the reference; %s", i+1, s.Failed, first)
			}
		}
		rep.Iterations = append(rep.Iterations, s)
		rep.OpsAttempted += nExp
		rep.OpsFailed += s.Failed
		fmt.Fprintf(os.Stderr, "bench: %s iteration %d: wall %.3f s, cpu %.3f s, rss %.1f MB\n", w.name, i+1, s.WallS, s.CPUS, s.RSSMB)

		reps, err := h.setupChild(ctx, w, seed)
		if err != nil {
			return nil, err
		}
		rep.SetupReps = append(rep.SetupReps, reps...)
	}

	var wall, cpu, rss []float64
	for _, s := range rep.Iterations {
		wall, cpu, rss = append(wall, s.WallS), append(cpu, s.CPUS), append(rss, s.RSSMB)
	}
	ws, cs := summarize(wall), summarize(cpu)
	rep.Wall, rep.CPU = &ws, &cs

	rep.Metrics, err = collect(endToEnd, map[string]float64{
		"wall_s":      ws.Min,
		"cpu_s":       cs.Min,
		"peak_rss_mb": median(rss),
		"setup_s":     minOf(rep.SetupReps),
	})
	return rep, err
}

// checkDoc requires `lockdown doc` to reproduce the committed
// EXPERIMENTS.md byte for byte. It is meaningful at the default seed
// only, which is the model the file documents.
func (h *harness) checkDoc(ctx context.Context) error {
	docPath := filepath.Join(h.workDir, "doc.md")
	if _, err := h.runChild(ctx, []string{"doc"}, docPath); err != nil {
		return fmt.Errorf("lockdown doc: %w", err)
	}
	got, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("lockdown doc differs from the committed EXPERIMENTS.md (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// setupChild runs a few set-up repetitions in a fresh copy of the harness
// and returns their seconds. The set-up is in-process work, but not in
// this process: a child's ru_maxrss starts from its parent's, so a harness
// that built the model itself would lift every later peak_rss_mb. One
// short child after each iteration also spreads the repetitions over the
// whole window, where a noisy second costs a few of them, not all.
func (h *harness) setupChild(ctx context.Context, w workload, seed int64) ([]float64, error) {
	cmd, err := selfCommand(ctx, w.name, seed, "-setup-reps", strconv.Itoa(setupRepsPerChild))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	var reps []float64
	if err := json.Unmarshal(out, &reps); err != nil {
		return nil, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return reps, nil
}

// setupTimes repeats the set-up every run of the CLI pays before its first
// flow batch, each time on a fresh dataset, and returns the seconds of
// each repetition: the model (generators, VPN derivation, study series)
// and, for the wire workload, bridge and pump bring-up. No flow batch is
// drawn, so nothing spills and the options need no cache dir.
func setupTimes(w workload, seed int64, reps int) ([]float64, error) {
	opts := w.options(seed, "")
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		tr := newTracer()
		total := 0.0
		if w.wire {
			wr, sp, err := setupWire(tr, opts)
			if err != nil {
				return nil, fmt.Errorf("setup: wire bring-up: %w", err)
			}
			wr.close()
			total += sp.seconds()
		}
		d := core.NewDataset(opts)
		m, err := setupModel(tr, d)
		d.Close()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, total+m.root.seconds())
	}
	return times, nil
}
