// Command benchgate guards the allocation budget of the batch codec hot
// paths. It reads `go test -bench -benchmem` output on stdin, compares
// the allocs/op of every gated benchmark against the baseline recorded in
// BENCH_gates.json, and exits non-zero if any gate regresses by more
// than 10% (plus one allocation of slack for integer rounding). CI runs
// it after the codec benchmarks so a change that reintroduces per-record
// allocations on the NetFlow/IPFIX batch paths fails the build instead of
// silently landing.
//
// Usage:
//
//	go test -bench Codec -benchmem -run '^$' . | go run ./cmd/benchgate [-baseline BENCH_gates.json] [-out observed.json]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Baseline is the subset of a BENCH_*.json file benchgate consumes.
type Baseline struct {
	// Gates maps benchmark names (without the -N GOMAXPROCS suffix) to
	// the budgets they must hold.
	Gates map[string]Gate `json:"gates"`
}

// Gate is one benchmark's recorded budget.
type Gate struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Observed is one parsed benchmark result line.
type Observed struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// parseBenchLine parses one `go test -bench` result line, returning the
// benchmark name (GOMAXPROCS suffix stripped) and its metrics.
func parseBenchLine(line string) (string, Observed, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Observed{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var o Observed
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			o.NsPerOp = v
			seen = true
		case "B/op":
			o.BytesPerOp = v
		case "allocs/op":
			o.AllocsPerOp = v
		}
	}
	return name, o, seen
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_gates.json", "JSON file with the allocation gates")
	outPath := flag.String("out", "", "optional file to write the observed results to (JSON)")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", *baselinePath, err)
	}
	if len(base.Gates) == 0 {
		return fmt.Errorf("baseline %s defines no gates", *baselinePath)
	}

	observed := make(map[string]Observed)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the benchmark output through
		if name, o, ok := parseBenchLine(line); ok {
			observed[name] = o
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stdin: %w", err)
	}

	if *outPath != "" {
		blob, err := json.MarshalIndent(map[string]any{"benchmarks": observed}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("out: %w", err)
		}
	}

	failed := 0
	for name, gate := range base.Gates {
		o, ok := observed[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: gated benchmark missing from input\n", name)
			failed++
			continue
		}
		// >10% regression fails; one allocation of absolute slack keeps
		// integer-rounded zero baselines meaningful without flaking.
		allowed := gate.AllocsPerOp*1.10 + 1
		if o.AllocsPerOp > allowed {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: %.1f allocs/op exceeds budget %.1f (baseline %.1f)\n",
				name, o.AllocsPerOp, allowed, gate.AllocsPerOp)
			failed++
		} else {
			fmt.Fprintf(os.Stderr, "benchgate: ok %s: %.1f allocs/op (budget %.1f)\n", name, o.AllocsPerOp, allowed)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d gate(s) failed", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
