package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfCommand is a fresh copy of this harness on one workload and seed.
func selfCommand(ctx context.Context, name string, seed int64, args ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-workload", name, "-seed", strconv.FormatInt(seed, 10)}, args...)
	return exec.CommandContext(ctx, self, args...), nil
}

// runSelf runs one workload in a fresh copy of this harness, passes its
// output through and returns its outcome line. A process per workload is
// what the driver does, and it is also what keeps peak_rss_mb honest: a
// child's ru_maxrss starts from its parent's, so a harness that has
// already built one workload's model in-process would lift the next
// workload's reading.
func runSelf(ctx context.Context, name string, seed int64, seconds, traced int) (outcome, error) {
	cmd, err := selfCommand(ctx, name, seed, "-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
	if err != nil {
		return outcome{}, err
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	if runErr != nil {
		return outcome{}, fmt.Errorf("%s: %w", name, runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return outcome{}, fmt.Errorf("%s: outcome line: %w", name, err)
	}
	return o, nil
}

// runSelfcheck runs two sets of every workload with the same binary and
// compares them: a benchmark whose own two readings of one program
// disagree by more than a metric's bound cannot judge a change by that
// bound. Which set goes first alternates per workload, so drift over the
// session does not always favour the same set.
func runSelfcheck(ctx context.Context, seed int64, seconds int) error {
	type row struct {
		workload, metric string
		a, b, diff       float64
		def              metricDef
	}
	var rows []row
	for i, w := range workloads {
		var sets [2]outcome
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			o, err := runSelf(ctx, w.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[s] = o
		}
		for _, d := range endToEnd {
			a, b := sets[0].Metrics[d.name].Value, sets[1].Metrics[d.name].Value
			// Disagreement is symmetric: whichever set read worse,
			// measured against the other.
			diff := max(worsening(a, b, !d.higher), worsening(b, a, !d.higher))
			rows = append(rows, row{w.name, d.name, a, b, diff, d})
		}
	}

	fmt.Printf("selfcheck: two sets of every workload, same binary, seed %d\n", seed)
	fmt.Printf("%-10s %-12s %12s %12s %-4s %8s %7s\n", "workload", "metric", "set A", "set B", "unit", "diff", "bound")
	bad := 0
	for _, r := range rows {
		verdict := ""
		if r.diff > r.def.bound {
			verdict = "  DISAGREE"
			bad++
		}
		fmt.Printf("%-10s %-12s %12.4f %12.4f %-4s %7.2f%% %6.0f%%%s\n",
			r.workload, r.metric, r.a, r.b, r.def.unit, r.diff*100, r.def.bound*100, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d (workload, metric) pairs disagree by more than their bound", bad, len(rows))
	}
	fmt.Printf("selfcheck: all %d (workload, metric) pairs agree within their bounds\n", len(rows))
	return nil
}
