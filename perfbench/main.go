// Command perfbench is the repository benchmark. It runs one workload
// through the production entry points — fed.Trainer.Run in process, or
// coord.Coordinator.Run with two coord.Participants on a loopback socket —
// checks every history bitwise against the serialized in-process drive of
// the same workload and seed, and prints the end-to-end metrics (-trace 0)
// or the per-layer metrics of a traced run (-trace 1). Metric definitions,
// and which end-to-end metric each per-layer metric should move, are in
// metrics.go; the workloads and the reason for each are in workload.go.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload dense-6k --seed 1 --seconds 20 --trace 0
//
// Standard output ends with one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
// Lines before it give the environment and every metric with its unit. The
// exit code is 0 only when every correctness check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed: generates the dataset and is the protocol seed")
		seconds = flag.Float64("seconds", 20, "how long the untraced run keeps repeating set-up and run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run benchmarks one workload from the repository root, the working
// directory: the root identifies the code, and the traced run's spans go to
// .bench_build/spans under it.
func run(name string, seed uint64, seconds float64, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("perfbench: -trace %d, want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("perfbench: -seconds %v, want > 0", seconds)
	}
	nproc := runtime.NumCPU()
	env, err := json.Marshal(map[string]any{
		"env": environment("."), "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(env))

	var rep *report
	if trace == 1 {
		rep, err = traced(w, seed, nproc, filepath.Join(".bench_build", "spans"))
	} else {
		rep, err = measure(os.Stdout, w, seed, seconds, nproc)
	}
	if err != nil {
		return err
	}
	return printReport(os.Stdout, rep)
}

// printReport prints every metric with its unit, then the result line. It
// returns an error, after printing, when a correctness check failed.
func printReport(out io.Writer, rep *report) error {
	metrics, err := rep.metrics.output()
	if err != nil {
		return err
	}
	for _, d := range rep.metrics.defs {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintln(out, "history mismatch:", m)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !rep.correct {
		return fmt.Errorf("perfbench: correctness check failed: %s", strings.Join(rep.mismatches, "; "))
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}
