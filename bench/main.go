// Command bench is the repository's benchmark: five fixed workloads of the
// lockdown CLI, each run as a closed loop of child processes and reported
// as best-of-N wall and cpu time, median peak RSS and in-process set-up
// time, plus a traced in-process mode for the per-layer numbers. See
// README.md in this directory for the workloads, the metrics and why each
// was chosen.
//
// Run it from the module root:
//
//	go run ./bench -workload suite-p1            one workload, end-to-end metrics
//	go run ./bench -workload suite-p1 -trace 1   one workload, per-layer metrics
//	go run ./bench -workload all                 every workload in turn
//	go run ./bench -selfcheck                    two sets of every workload, compared
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := flag.Int64("seed", 0, "model seed handed to the program as -seed (0 = the model EXPERIMENTS.md documents)")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window; at least minIters iterations are counted whatever it says")
	traced := flag.Int("trace", 0, "1 = run the workload once in-process with tracing and print the per-layer metrics")
	setupReps := flag.Int("setup-reps", 0, "internal: print the seconds of this many in-process set-up repetitions of -workload as a JSON array and exit")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of every workload and fail if any end-to-end metric disagrees by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 1 {
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, *seed, *seconds)
	case *name == "all":
		for _, w := range workloads {
			if _, err = runSelf(ctx, w.name, *seed, *seconds, *traced); err != nil {
				break
			}
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			flag.Usage()
			return 2
		}
		if *setupReps > 0 {
			err = printSetupTimes(w, *seed, *setupReps)
			break
		}
		err = runOne(ctx, w, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// outcome is the last line of a run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// errIncorrect is returned after a result whose outputs were wrong has
// been printed, so the process still exits non-zero.
var errIncorrect = fmt.Errorf("the program's output was incorrect; see problems above")

// runOne measures or traces one workload in this process and prints the
// result: the full report, a table of the metrics, then the outcome line.
func runOne(ctx context.Context, w workload, seed int64, seconds int, traced bool) error {
	workDir, err := newWorkDir()
	if err != nil {
		return err
	}
	// Runs on every return, an interrupt included: the context is
	// cancelled, the child killed and waited for, and the error comes back
	// up through here.
	defer os.RemoveAll(workDir)
	h := &harness{workDir: workDir, spillDir: filepath.Join(workDir, "spill"), env: newEnvBlock(workDir)}
	if err := os.Mkdir(h.spillDir, 0o755); err != nil {
		return err
	}

	var rep *result
	if traced {
		rep, err = h.trace(ctx, w, seed)
	} else {
		if h.bin, err = buildChild(ctx); err != nil {
			return err
		}
		rep, err = h.measure(ctx, w, seed, seconds)
	}
	if err != nil {
		return err
	}

	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n\n", full)
	printMetrics(rep)
	last, err := json.Marshal(outcome{rep.Correct, rep.OpsAttempted, rep.OpsFailed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// printSetupTimes is the set-up child (see harness.setupChild).
func printSetupTimes(w workload, seed int64, reps int) error {
	times, err := setupTimes(w, seed, reps)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(times)
}

// printMetrics prints every metric of the run by name with its unit.
func printMetrics(rep *result) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s (%s, seed %d): %d ops attempted, %d failed\n", rep.Workload, rep.Mode, rep.Seed, rep.OpsAttempted, rep.OpsFailed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Println()
}
