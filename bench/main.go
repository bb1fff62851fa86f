// Command bench is the repository's benchmark: four workloads over the
// function merger, six end-to-end metrics per workload, a correctness
// oracle, and (with -trace 1) a replay of every layer's public
// functions under in-memory spans. BENCHMARK.json at the repository
// root names the command, the workloads and every metric; README.md
// beside this file says why each exists.
//
//	bench -workload clone10k -seed 1 -seconds 15 -trace 0
//	bench -workload tiny8k -trace 1        # per-layer metrics + span file
//	bench -selftest -runs 10               # same-code noise check
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// secondsPerRep is the nominal length of one timed section on the
// reference box; -seconds buys reps in this unit, never fewer than
// minReps.
const (
	secondsPerRep = 5
	minReps       = 3
)

// config is one run's parameters. Only seed comes from outside; reps
// and scale are fixed by the command line's -seconds (reps) or by the
// smoke test (both).
type config struct {
	seed  int64
	reps  int
	scale int    // divides every workload size; 1 is the benchmark
	out   string // directory for detail and span files; "" writes none
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pinRuntime removes the scheduler and the environment from the
// measurement: one P, so GC work lands in wall time instead of on a
// second core a neighbour may or may not leave free, and the default
// GC pacing whatever GOGC/GOMEMLIMIT say.
func pinRuntime() {
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: clone10k, tiny8k, paper-suites, session-churn, or all")
		seed         = flag.Int64("seed", 1, "seed for every generated input")
		seconds      = flag.Int("seconds", minReps*secondsPerRep, "time to measure; buys one rep per 5 s, at least 3")
		trace        = flag.Int("trace", 0, "1 replays each layer under spans and prints the per-layer metrics")
		out          = flag.String("out", "bench/out", "directory for detail and span files")
		selftest     = flag.Bool("selftest", false, "from the repository root: run every workload as two interleaved series and compare them to BENCHMARK.json's bounds")
		runs         = flag.Int("runs", 3, "with -selftest: runs per series (each run has its own seed)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	pinRuntime()

	if *selftest {
		if err := runSelftest("BENCHMARK.json", *runs, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	c := config{seed: *seed, reps: max(minReps, *seconds/secondsPerRep), scale: 1, out: *out}
	var selected []*workload
	for _, w := range workloads() {
		if *workloadName == "all" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	ok := true
	for _, w := range selected {
		var res *result
		var err error
		if *trace != 0 {
			res, err = runTraced(w, c)
		} else {
			res, err = runEndToEnd(w, c)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printResult(w.name, res)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printResult prints the metrics by name with their units, then the
// JSON object the driver reads.
func printResult(workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s: ops %d, failed_ops %d\n", workload, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result holds only numbers, strings and bools
	}
	fmt.Printf("%s\n", blob)
}

// writeJSON writes v to dir/name when dir is set.
func writeJSON(dir, name string, v any) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, append(blob, '\n'), 0o644)
}
