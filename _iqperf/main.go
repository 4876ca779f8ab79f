// Command iqperf is cloudiq's end-to-end benchmark. It builds the simulated
// cloud substrate and drives the engine through the public cloudiq and tpch
// packages only, so that refactors of the engine's own experiment harness
// cannot change what it measures.
//
// Usage (from the repository root):
//
//	bash _iqperf/run.sh --workload tpch_cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics of an uninstrumented run; --trace 1 instruments the engine from
// outside and reports per-layer metrics instead. A wrong answer makes the
// command exit non-zero. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// deadline bounds a whole run, so a hung engine still ends the process in
// time to be reported as a failure.
const deadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iqperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "iqperf: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := execute(ctx, w, opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1})
	if err != nil {
		fmt.Fprintf(stderr, "iqperf: %s: %v\n", w.name, err)
		return 1
	}
	return report(w.name, res, stdout, stderr)
}

// report prints the result line and turns a wrong answer into a non-zero
// exit code.
func report(name string, res *result, stdout, stderr io.Writer) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "iqperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "iqperf: %s: %d of %d operations failed or answered wrongly; first: %v\n", name, res.Failed, res.Attempted, res.firstErr)
		return 1
	}
	return 0
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	firstErr error // the first failure, for the diagnostic on standard error
}

// opts are the per-invocation settings. The remaining fields shrink a run
// for the harness self-test; a command-line run always uses the defaults.
type opts struct {
	seed    int64
	seconds time.Duration
	traced  bool

	setups int  // set-ups per untraced run; 0 selects setupRepeats
	rounds int  // overrides workload.minRounds when positive
	tamper bool // corrupt one reference answer, to test the correctness gate
}

func (o opts) setupCount() int {
	if o.traced {
		return 1
	}
	if o.setups > 0 {
		return o.setups
	}
	return setupRepeats
}

func (o opts) minRounds(w workload) int {
	if o.rounds > 0 {
		return o.rounds
	}
	return w.minRounds
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
