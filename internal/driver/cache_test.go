package driver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// TestAlignCacheReported: every run must account its linearization
// cache, and with threshold > 1 the cache must actually be hit (one
// function aligned against several candidates reuses its sequence).
func TestAlignCacheReported(t *testing.T) {
	m := testModule(t, 6)
	res := Run(m, Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64})
	ac := res.AlignCache
	if ac.Misses == 0 {
		t.Fatal("run interned no sequences")
	}
	if ac.Hits == 0 {
		t.Error("threshold-3 run never hit the sequence cache")
	}
	if ac.Classes == 0 {
		t.Error("run interned no instruction classes")
	}
	if len(res.Merges) > 0 && int64(ac.Functions) >= ac.Misses {
		t.Errorf("commits must invalidate cached sequences: %d live of %d interned",
			ac.Functions, ac.Misses)
	}
}

// TestLSHDupFoldMatchesExact is the full-pipeline equivalence check of
// the indexed finder under duplicate folding: with folds tombstoning
// functions before the loop, the LSH finder's lists must still commit
// exactly the exact finder's merge set.
func TestLSHDupFoldMatchesExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, threshold := range []int{1, 3} {
			name := fmt.Sprintf("seed%d-t%d", seed, threshold)
			base := testModule(t, seed)

			exact := Run(ir.CloneModule(base), Config{
				Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64,
				DupFold: true,
			})

			mp := ir.CloneModule(base)
			lsh, err := RunContext(context.Background(), mp, Config{
				Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64,
				DupFold: true, Finder: search.KindLSH,
			})
			if err != nil {
				t.Fatalf("%s: LSH run failed: %v", name, err)
			}
			sameMerges(t, exact, lsh)
			if len(exact.Folds) != len(lsh.Folds) {
				t.Errorf("%s: fold count differs: %d vs %d",
					name, len(exact.Folds), len(lsh.Folds))
			}
			if err := ir.VerifyModule(mp); err != nil {
				t.Fatalf("%s: merged module does not verify: %v", name, err)
			}
			diffModule(t, base, mp, name)
		}
	}
}
