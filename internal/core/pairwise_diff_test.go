package core

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// TestPairwiseBitIdenticalToReference is the family PR's acceptance
// guard: the k=2 path of the generalized generator must produce output
// bit-identical to the retained pre-family pairwise generator — same
// merged body, same thunks, same stats — across the synth corpora and
// every generator variant. The reference still builds one block per
// alignment row and the generator one per straight-line run, so the
// bodies are compared after clean-up, which collapses the chains.
func TestPairwiseBitIdenticalToReference(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"nopc", func() Options { o := DefaultOptions(); o.PhiCoalescing = false; return o }()},
		{"noxor", func() Options { o := DefaultOptions(); o.XorBranch = false; return o }()},
	}
	for seed := int64(40); seed < 46; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "pairref", Seed: seed, Funcs: 10,
			MinSize: 8, AvgSize: 50, MaxSize: 140,
			CloneFrac: 0.5, FamilySize: 3, MutRate: 0.10,
			Loops: 0.6, Switches: 0.5, ExcRate: 0.05, Floats: 0.2,
		})
		defined := m.Defined()
		pairs := 0
		for i := 0; i < len(defined) && pairs < 6; i++ {
			for j := i + 1; j < len(defined) && pairs < 6; j++ {
				if _, err := refPlanParams(defined[i], defined[j]); err != nil {
					continue
				}
				pairs++
				n1, n2 := defined[i].Name(), defined[j].Name()
				for _, v := range variants {
					t.Run(fmt.Sprintf("seed%d-%s-%s-%s", seed, n1, n2, v.name), func(t *testing.T) {
						mRef := ir.CloneModule(m)
						mNew := ir.CloneModule(m)
						r1, r2 := mRef.FuncByName(n1), mRef.FuncByName(n2)
						g1, g2 := mNew.FuncByName(n1), mNew.FuncByName(n2)

						refMerged, refStats, refErr := refMerge(mRef, r1, r2, "paircheck", v.opts)
						newMerged, newStats, newErr := Merge(mNew, g1, g2, "paircheck", v.opts)
						if (refErr == nil) != (newErr == nil) {
							t.Fatalf("error divergence: reference %v, family path %v", refErr, newErr)
						}
						if refErr != nil {
							return
						}
						transform.Simplify(refMerged)
						transform.Simplify(newMerged)
						if got, want := newMerged.String(), refMerged.String(); got != want {
							t.Fatalf("merged body diverges from the pre-family reference\n--- reference ---\n%s\n--- family path ---\n%s", want, got)
						}
						newStats.BuildTime, newStats.RepairTime = 0, 0 // the reference keeps no clocks
						if *newStats != *refStats {
							t.Errorf("stats diverge: reference %+v, family path %+v", *refStats, *newStats)
						}

						// Thunks must be byte-identical too: the i1 identifier
						// and its historical polarity (true selects the first
						// function) are part of the k=2 contract.
						refPlan, err := refPlanParams(r1, r2)
						if err != nil {
							t.Fatal(err)
						}
						refBuildThunk(r1, refMerged, true, refPlan.Map1, refPlan)
						refBuildThunk(r2, refMerged, false, refPlan.Map2, refPlan)
						newPlan, err := PlanParams(g1, g2)
						if err != nil {
							t.Fatal(err)
						}
						BuildThunk(g1, newMerged, 0, newPlan.Maps[0], newPlan)
						BuildThunk(g2, newMerged, 1, newPlan.Maps[1], newPlan)
						if got, want := mNew.String(), mRef.String(); got != want {
							t.Fatalf("thunked module diverges from the pre-family reference")
						}
						if err := ir.VerifyModule(mNew); err != nil {
							t.Fatalf("family-path module does not verify: %v", err)
						}
					})
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("seed %d produced no mergeable pairs", seed)
		}
	}
}
