// Command repro regenerates the paper's evaluation tables and figures
// on the synthetic benchmark suites.
//
// Usage:
//
//	repro [-scale N] all            # every experiment, paper order
//	repro [-scale N] fig17a fig22   # selected experiments
//	repro list                      # available experiment ids
//
// -scale divides the suite sizes for quick runs; -scale 1 is the full
// evaluation. Every run folds structurally identical functions before
// alignment, FMSA's included, so the algorithms compare like for like.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 1, "divide benchmark sizes by N for quicker runs")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: repro [-scale N] all | list | <experiment>...")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(experiments.IDs(), " "))
		os.Exit(2)
	}
	if args[0] == "list" {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	lab := experiments.NewLab()
	lab.Scale = *scale
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
