// Templates: deduplicate a C++-template-like module. The paper's largest
// wins (447.dealII, 510.parest_r: >40% size reduction) come from heavy
// template instantiation — many near-identical functions. This example
// builds such a module synthetically and runs the whole-module pipeline
// at the three exploration thresholds of the evaluation.
package main

import (
	"context"
	"fmt"
	"log"

	repro "repro"
	"repro/internal/ir"
	"repro/internal/synth"
)

func main() {
	profile := synth.Profile{
		Name: "templatelib", Seed: 2020,
		Funcs: 120, MinSize: 10, AvgSize: 60, MaxSize: 300,
		CloneFrac: 0.7, FamilySize: 4, MutRate: 0.03,
		Loops: 0.5, Floats: 0.2, ExcRate: 0.05,
	}
	fmt.Println("building a template-instantiation-heavy module:")
	base := synth.Generate(profile)
	st := synth.ModuleStats(base)
	fmt.Printf("  %d functions, sizes %d/%.1f/%d (min/avg/max), %d phis\n\n",
		st.Funcs, st.MinSize, st.AvgSize, st.MaxSize, st.PhiInstrs)

	ctx := context.Background()
	for _, t := range []int{1, 5, 10} {
		opt, err := repro.New(repro.WithThreshold(t))
		if err != nil {
			log.Fatal(err)
		}
		m := ir.CloneModule(base)
		rep, err := opt.Optimize(ctx, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SalSSA[t=%d]: %2d merges, %6d -> %6d bytes (%.1f%% reduction) in %v\n",
			t, len(rep.Merges), rep.BaselineBytes, rep.FinalBytes,
			rep.Reduction(), rep.TotalTime.Round(1000000))
	}

	fmt.Println()
	fmsa, err := repro.New(repro.WithAlgorithm(repro.FMSA))
	if err != nil {
		log.Fatal(err)
	}
	m := ir.CloneModule(base)
	rep, err := fmsa.Optimize(ctx, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FMSA  [t=1]: %2d merges, %6d -> %6d bytes (%.1f%% reduction) in %v\n",
		len(rep.Merges), rep.BaselineBytes, rep.FinalBytes,
		rep.Reduction(), rep.TotalTime.Round(1000000))
	fmt.Println("\n(the gap is the paper's headline: direct SSA merging roughly doubles")
	fmt.Println(" the reduction of the demotion-based state of the art)")
}
