package driver

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
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

// TestFoldIdenticalFamilyZeroDP checks the headline property of
// duplicate folding: a family of identical clones is deduplicated with
// zero alignment DP cells spent — every duplicate becomes a forwarder
// and the merging pipeline has nothing left to align.
func TestFoldIdenticalFamilyZeroDP(t *testing.T) {
	base := cloneFamilyModule(t, 11, 6, 6) // one family of six identical functions
	m := ir.CloneModule(base)
	res := Run(m, Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
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
	diffModule(t, base, m, "fold")
}

// TestFoldPreservesBehaviour folds duplicates inside the full
// pipeline (folding plus ordinary merging) and differentially checks
// every original function.
func TestFoldPreservesBehaviour(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		base := synth.Generate(synth.Profile{
			Name: "dupmix", Seed: seed, Funcs: 18,
			MinSize: 8, AvgSize: 45, MaxSize: 120,
			CloneFrac: 0.6, FamilySize: 3, MutRate: 0, // identical families
			Loops: 0.5, Floats: 0.2, Switches: 0.4,
		})
		m := ir.CloneModule(base)
		res, err := RunContext(context.Background(), m, Config{
			Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Folds) == 0 {
			t.Fatalf("seed %d: no duplicates folded in an identical-clone module", seed)
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("seed %d: folded module does not verify: %v", seed, err)
		}
		diffModule(t, base, m, "fold pipeline")
	}
}

// TestLSHFinderPipeline: a run over the finder must be valid and
// behaviour-preserving, with query accounting in the report. (The
// finder's lists are held to a full sort in internal/search, and the
// committed output to recorded digests by TestGoldenDigests.)
func TestLSHFinderPipeline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := testModule(t, seed)
		m := ir.CloneModule(base)
		res, err := RunContext(context.Background(), m, Config{
			Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Search.Queries == 0 {
			t.Errorf("seed %d: run reported no finder queries", seed)
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("seed %d: merged module does not verify: %v", seed, err)
		}
		diffModule(t, base, m, "pipeline")
	}
}

// TestLSHFinderDeterministic: the finder has no run-to-run randomness —
// two runs over clones of the same module commit the same merges.
func TestLSHFinderDeterministic(t *testing.T) {
	base := testModule(t, 6)
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
	}
	a := Run(ir.CloneModule(base), cfg)
	b := Run(ir.CloneModule(base), cfg)
	sameMerges(t, a, b)
}
