package driver

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/synth"
)

// cloneFamilyModule generates a module dominated by exact clone
// families (MutRate 0 keeps family members structurally identical).
func cloneFamilyModule(t testing.TB, seed int64, funcs, familySize int) *ir.Module {
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
	_, refs := cell{
		build: func(t testing.TB) *ir.Module { return cloneFamilyModule(t, 11, 6, 6) }, // one family of six identical functions
		cfg:   sessionCfg, runs: 1, paths: oneShot,
	}.run(t)
	res := refs[0].res
	if got, want := len(res.Folds), 5; got != want {
		t.Fatalf("folded %d duplicates, want %d (folds: %+v)", got, want, res.Folds)
	}
	if res.SumMatrixBytes != 0 || res.Attempts != 0 {
		t.Errorf("duplicate folding spent %d alignment matrix bytes over %d attempts, want none", res.SumMatrixBytes, res.Attempts)
	}
	if res.FinalBytes >= res.BaselineBytes {
		t.Errorf("folding did not shrink the module: %d -> %d bytes", res.BaselineBytes, res.FinalBytes)
	}
}

// TestFoldPreservesBehaviour folds duplicates inside the full
// pipeline (folding plus ordinary merging), and the oracle checks every
// rewritten function.
func TestFoldPreservesBehaviour(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		_, refs := cell{
			build: func(testing.TB) *ir.Module {
				return synth.Generate(synth.Profile{
					Name: "dupmix", Seed: seed, Funcs: 18,
					MinSize: 8, AvgSize: 45, MaxSize: 120,
					CloneFrac: 0.6, FamilySize: 3, MutRate: 0, // identical families
					Loops: 0.5, Floats: 0.2, Switches: 0.4,
				})
			},
			cfg: sessionCfg, runs: 1, paths: oneShot,
		}.run(t)
		if len(refs[0].res.Folds) == 0 {
			t.Fatalf("seed %d: no duplicates folded in an identical-clone module", seed)
		}
	}
}

// TestLSHFinderPipeline: a run over the finder must pass the oracle,
// with query accounting in the report. (The finder's lists are held to
// a full sort in internal/search, and the committed output to recorded
// digests by the grid and the oracle's cells.)
func TestLSHFinderPipeline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if _, refs := seedCell(seed, sessionCfg, oneShot).run(t); refs[0].res.Search.Queries == 0 {
			t.Errorf("seed %d: run reported no finder queries", seed)
		}
	}
}

// TestLSHFinderDeterministic: the finder has no run-to-run randomness —
// a session and a one-shot run over copies of the same module commit
// the same merges.
func TestLSHFinderDeterministic(t *testing.T) {
	seedCell(6, sessionCfg, oneShot).run(t)
}
