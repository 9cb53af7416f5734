// Command perfbench is the repository benchmark: it runs one named
// workload against the vpga flow for a fixed time, checks that every
// output is correct, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output. See README.md for the workloads and the metric
// predictions, and run.py for the launcher that builds it.
//
//	perfbench --workload table-mid --seed 1 --seconds 10 --trace 0
//	perfbench compare -base a.json,b.json -head c.json,d.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	// toy shrinks every workload to test-scale inputs; only the
	// self-test uses it.
	toy bool
	// workDir is a private working directory inside the checkout (the
	// daemon's data directory lives under it).
	workDir string
}

// outcome is one workload run: its op accounting and both metric sets.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        metrics
	// notes are human-readable lines (sample counts, attribution)
	// printed above the result line.
	notes []string
}

// fail counts one failed op and records why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, cfg config, traced bool) (*outcome, error)

var workloads = map[string]workloadFunc{
	"table-mid":   runTableMid,
	"route-sweep": runRouteSweep,
	"serve-mix":   runServeMix,
}

// result is the contract's last-line object.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: table-mid, route-sweep or serve-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		out     = flag.String("out", "", "also write the result with its host block to this file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, out string) error {
	wl, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(workDir)

	host := currentHost(".")
	cfg := config{seed: seed, seconds: seconds, workDir: workDir}
	o, err := wl(context.Background(), cfg, trace == 1)
	if err != nil {
		return err
	}
	ms := o.e2e
	table := endToEndMetrics
	if trace == 1 {
		ms, table = o.layer, layerMetrics
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms}

	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# host %s\n", hj)
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, d := range table {
		worse := "higher"
		if d.Better == "higher" {
			worse = "lower"
		}
		fmt.Printf("# %-34s %16.6g %-6s (worse: %s)\n", d.Name, ms[d.Name].Value, d.Unit, worse)
	}
	if out != "" {
		rec := record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: host, Result: res}
		enc, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			return fmt.Errorf("write -out: %w", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
