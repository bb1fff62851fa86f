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

// TestParallelLSHDupFoldMatchesSerial is the full-pipeline equivalence
// check of the allocation-free alignment core: component capture in 8
// workers (clone trials riding on copied class vectors), LSH candidate
// discovery over class-bigram sketches, and duplicate folding must
// commit exactly the serial exact-finder merge set. Run with -race this
// also exercises cache/interner concurrency.
func TestParallelLSHDupFoldMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, threshold := range []int{1, 3} {
			name := fmt.Sprintf("seed%d-t%d", seed, threshold)
			base := testModule(t, seed)

			serial := Run(ir.CloneModule(base), Config{
				Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64,
				DupFold: true,
			})

			mp := ir.CloneModule(base)
			parallel, err := RunContext(context.Background(), mp, Config{
				Algorithm: SalSSA, Threshold: threshold, Target: costmodel.X86_64,
				DupFold: true, Finder: search.KindLSH, Parallelism: 8,
			})
			if err != nil {
				t.Fatalf("%s: parallel run failed: %v", name, err)
			}
			sameMerges(t, serial, parallel)
			if len(serial.Folds) != len(parallel.Folds) {
				t.Errorf("%s: fold count differs: %d vs %d",
					name, len(serial.Folds), len(parallel.Folds))
			}
			if err := ir.VerifyModule(mp); err != nil {
				t.Fatalf("%s: merged module does not verify: %v", name, err)
			}
			diffModule(t, base, mp, name)
		}
	}
}
