// Command repro regenerates the paper's evaluation tables and figures
// on the synthetic benchmark suites.
//
// Usage:
//
//	repro [-scale N] [-jobs N] all            # every experiment, paper order
//	repro [-scale N] [-jobs N] fig17a fig22   # selected experiments
//	repro list                                # available experiment ids
//
// -scale divides the suite sizes for quick runs (the committed
// EXPERIMENTS.md numbers use -scale 1). -jobs tries independent
// candidate components on N workers (0 = all CPUs); the merge decisions
// — and so every size figure — are identical to a serial run, but keep
// -jobs 1 when regenerating the timing figures (23, 24) so the phase
// timers measure the serial pipeline the paper describes.
//
// -finder selects the candidate search ("exact" or "lsh") and
// -dup-fold folds identical functions before alignment. Both default to
// the paper's pipeline (exact, no folding); regenerating figures with
// either changed measures the extension, not the reproduction.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/search"
)

func main() {
	scale := flag.Int("scale", 1, "divide benchmark sizes by N for quicker runs")
	jobs := flag.Int("jobs", 1, "workers trying independent candidate components side by side (0 = all CPUs)")
	finder := flag.String("finder", "exact", "candidate search: exact or lsh")
	dupFold := flag.Bool("dup-fold", false, "fold structurally identical functions before alignment")
	flag.Parse()
	if *jobs == 0 {
		*jobs = runtime.NumCPU()
	}
	kind, err := search.KindByName(*finder)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: repro [-scale N] [-jobs N] [-finder exact|lsh] [-dup-fold] all | list | <experiment>...")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}
	if args[0] == "list" {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	lab := experiments.NewLab()
	lab.Scale = *scale
	lab.Jobs = *jobs
	lab.Finder = kind
	lab.DupFold = *dupFold
	ids := args
	if args[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		table, ok := lab.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try: repro list)\n", id)
			os.Exit(2)
		}
		fmt.Println(table)
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
