package driver

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
)

// cloneFamilyModule generates a module dominated by exact clone
// families (MutRate 0 keeps family members structurally identical).
func cloneFamilyModule(t *testing.T, seed int64, funcs, familySize int) *ir.Module {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "dup", Seed: seed, Funcs: funcs,
		MinSize: 20, AvgSize: 60, MaxSize: 120,
		CloneFrac: 1.0, FamilySize: familySize, MutRate: 0,
		Loops: 0.5, Switches: 0.3,
	})
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("generated module invalid: %v", err)
	}
	return m
}

// TestDupFoldIdenticalFamilyZeroDP checks the headline property of
// duplicate folding: a family of identical clones is deduplicated with
// zero alignment DP cells spent — every duplicate becomes a forwarder
// and the merging pipeline has nothing left to align.
func TestDupFoldIdenticalFamilyZeroDP(t *testing.T) {
	base := cloneFamilyModule(t, 11, 6, 6) // one family of six identical functions
	m := ir.CloneModule(base)
	res := Run(m, Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, DupFold: true,
	})
	if got, want := len(res.Folds), 5; got != want {
		t.Fatalf("folded %d duplicates, want %d (folds: %+v)", got, want, res.Folds)
	}
	if res.SumMatrixBytes != 0 {
		t.Errorf("duplicate folding spent %d alignment matrix bytes, want 0", res.SumMatrixBytes)
	}
	if res.Attempts != 0 {
		t.Errorf("duplicate folding left %d alignment attempts, want 0", res.Attempts)
	}
	if res.FinalBytes >= res.BaselineBytes {
		t.Errorf("folding did not shrink the module: %d -> %d bytes",
			res.BaselineBytes, res.FinalBytes)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("folded module does not verify: %v", err)
	}
	diffModule(t, base, m, "dup-fold")
}

// TestDupFoldPreservesBehaviour folds duplicates inside the full
// pipeline (folding plus ordinary merging) and differentially checks
// every original function, serial and parallel.
func TestDupFoldPreservesBehaviour(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base := synth.Generate(synth.Profile{
			Name: "dupmix", Seed: seed, Funcs: 18,
			MinSize: 8, AvgSize: 45, MaxSize: 120,
			CloneFrac: 0.6, FamilySize: 3, MutRate: 0, // identical families
			Loops: 0.5, Floats: 0.2, Switches: 0.4,
		})
		for _, jobs := range []int{1, 4} {
			m := ir.CloneModule(base)
			res, err := RunContext(context.Background(), m, Config{
				Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
				DupFold: true, Parallelism: jobs,
			})
			if err != nil {
				t.Fatalf("seed %d jobs %d: %v", seed, jobs, err)
			}
			if len(res.Folds) == 0 {
				t.Fatalf("seed %d jobs %d: no duplicates folded in an identical-clone module", seed, jobs)
			}
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("seed %d jobs %d: folded module does not verify: %v", seed, jobs, err)
			}
			diffModule(t, base, m, "dup-fold pipeline")
		}
	}
}

// TestDupFoldDeterministicAcrossParallelism: folding happens before
// planning in both serial and parallel runs, so fold records and the
// committed merge set are identical at any parallelism.
func TestDupFoldDeterministicAcrossParallelism(t *testing.T) {
	base := synth.Generate(synth.Profile{
		Name: "dupdet", Seed: 7, Funcs: 16,
		MinSize: 8, AvgSize: 40, MaxSize: 100,
		CloneFrac: 0.5, FamilySize: 2, MutRate: 0,
		Loops: 0.5,
	})
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, DupFold: true}
	serial := Run(ir.CloneModule(base), cfg)
	pcfg := cfg
	pcfg.Parallelism = 4
	parallel := Run(ir.CloneModule(base), pcfg)
	sameMerges(t, serial, parallel)
	if len(serial.Folds) != len(parallel.Folds) {
		t.Fatalf("fold count differs: serial %d, parallel %d", len(serial.Folds), len(parallel.Folds))
	}
	for i := range serial.Folds {
		if serial.Folds[i] != parallel.Folds[i] {
			t.Errorf("fold %d differs: serial %+v, parallel %+v", i, serial.Folds[i], parallel.Folds[i])
		}
	}
}

// TestExactFinderMatchesLegacyPipeline: the zero-value config selects
// the exact finder, and an explicit KindExact at any parallelism
// commits the identical merge set.
func TestExactFinderMatchesLegacyPipeline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := testModule(t, seed)
		legacy := Run(ir.CloneModule(base), Config{
			Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		})
		explicit := Run(ir.CloneModule(base), Config{
			Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
			Finder: search.KindExact, Parallelism: 4,
		})
		sameMerges(t, legacy, explicit)
	}
}

// TestLSHFinderPipeline: the LSH finder must produce a valid,
// behaviour-preserving run at any parallelism, with query accounting
// in the report. (TestLSHFinderMatchesExact separately pins its merge
// set to the exact finder's.)
func TestLSHFinderPipeline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := testModule(t, seed)
		for _, jobs := range []int{1, 4} {
			m := ir.CloneModule(base)
			res, err := RunContext(context.Background(), m, Config{
				Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
				Finder: search.KindLSH, Parallelism: jobs,
			})
			if err != nil {
				t.Fatalf("seed %d jobs %d: %v", seed, jobs, err)
			}
			if res.Search.Queries == 0 {
				t.Errorf("seed %d jobs %d: LSH run reported no finder queries", seed, jobs)
			}
			if err := ir.VerifyModule(m); err != nil {
				t.Fatalf("seed %d jobs %d: LSH-merged module does not verify: %v", seed, jobs, err)
			}
			diffModule(t, base, m, "lsh pipeline")
		}
	}
}

// TestLSHFinderDeterministic: the LSH finder has no run-to-run
// randomness — two runs over clones of the same module commit the same
// merges.
func TestLSHFinderDeterministic(t *testing.T) {
	base := testModule(t, 6)
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, Finder: search.KindLSH,
	}
	a := Run(ir.CloneModule(base), cfg)
	b := Run(ir.CloneModule(base), cfg)
	sameMerges(t, a, b)
}

// TestLSHFinderMatchesExact: the LSH finder's branch-and-bound returns
// the exact fingerprint top-t, so today the whole pipeline commits the
// identical merge set under either finder. (Relax this to a recall
// bound if the finder ever becomes genuinely approximate.)
func TestLSHFinderMatchesExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := testModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64}
		exact := Run(ir.CloneModule(base), cfg)
		lcfg := cfg
		lcfg.Finder = search.KindLSH
		lsh := Run(ir.CloneModule(base), lcfg)
		sameMerges(t, exact, lsh)
	}
}
