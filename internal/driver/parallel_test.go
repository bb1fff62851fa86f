package driver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
)

// mergeSet summarises a run's committed decisions for equality checks.
func mergeSet(res *Result) []string {
	var out []string
	for _, rec := range res.Merges {
		out = append(out, fmt.Sprintf("%s+%s->%s profit=%d committed=%v",
			rec.F1, rec.F2, rec.Merged, rec.Profit, rec.Committed))
	}
	return out
}

func sameMerges(t *testing.T, serial, parallel *Result) {
	t.Helper()
	s, p := mergeSet(serial), mergeSet(parallel)
	if len(s) != len(p) {
		t.Fatalf("merge count differs: serial %d, parallel %d\nserial: %v\nparallel: %v",
			len(s), len(p), s, p)
	}
	for i := range s {
		if s[i] != p[i] {
			t.Errorf("merge %d differs:\n  serial:   %s\n  parallel: %s", i, s[i], p[i])
		}
	}
	if serial.FinalBytes != parallel.FinalBytes {
		t.Errorf("final bytes differ: serial %d, parallel %d",
			serial.FinalBytes, parallel.FinalBytes)
	}
	if serial.Attempts != parallel.Attempts {
		t.Errorf("attempts differ: serial %d, parallel %d",
			serial.Attempts, parallel.Attempts)
	}
}

// TestParallelMatchesSerial checks the scheduler's invariant: a run at
// Parallelism 4 commits exactly the merge set of the serial pipeline,
// for every algorithm and an exploration threshold above 1. Run with
// -race this also exercises the concurrency safety of planning.
func TestParallelMatchesSerial(t *testing.T) {
	for _, algo := range []Algorithm{SalSSA, SalSSANoPC, FMSA} {
		for _, threshold := range []int{1, 3} {
			name := fmt.Sprintf("%s-t%d", algo, threshold)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					base := testModule(t, seed)
					cfg := Config{Algorithm: algo, Threshold: threshold, Target: costmodel.X86_64}

					ms := ir.CloneModule(base)
					serial := Run(ms, cfg)

					mp := ir.CloneModule(base)
					pcfg := cfg
					pcfg.Parallelism = 4
					parallel, err := RunContext(context.Background(), mp, pcfg)
					if err != nil {
						t.Fatalf("seed %d: parallel run failed: %v", seed, err)
					}
					sameMerges(t, serial, parallel)
					if err := ir.VerifyModule(mp); err != nil {
						t.Fatalf("seed %d: parallel-merged module does not verify: %v", seed, err)
					}
					diffModule(t, base, mp, fmt.Sprintf("%s seed %d", name, seed))
				}
			})
		}
	}
}

// TestParallelPlansSpeculatively checks that workers > 1 on a module
// with at least two candidate components actually captured rows side by
// side and used them (otherwise the "parallel" pipeline silently
// degraded to the serial loop), and that a serial run reports none.
func TestParallelPlansSpeculatively(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, Parallelism: 4}
	res, err := RunContext(context.Background(), testModule(t, 2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components < 2 || res.Transplanted == 0 {
		t.Fatalf("parallel run captured %d components and transplanted %d rows, want >= 2 and > 0",
			res.Components, res.Transplanted)
	}
	cfg.Parallelism = 1
	if res := Run(testModule(t, 2), cfg); res.Components != 0 || res.Transplanted != 0 || res.Repaired != 0 {
		t.Errorf("serial run reports scheduler stats: %d components, %d transplanted, %d repaired",
			res.Components, res.Transplanted, res.Repaired)
	}
}

// TestRunContextCancelDuringCommit cancels after the first committed
// merge; the run must stop early with ctx.Err() yet leave a consistent,
// verifying module and a truthful partial report.
func TestRunContextCancelDuringCommit(t *testing.T) {
	base := testModule(t, 3)
	full := Run(ir.CloneModule(base), Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64})
	if len(full.Merges) < 2 {
		t.Skipf("need >= 2 merges to observe a mid-run cancel, got %d", len(full.Merges))
	}

	ctx, cancel := context.WithCancel(context.Background())
	m := ir.CloneModule(base)
	res, err := RunContext(ctx, m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
		Progress: func(ev Progress) {
			if ev.Stage == StageCommit {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := len(res.Merges); n == 0 || n >= len(full.Merges) {
		t.Errorf("cancelled run committed %d merges, want in [1, %d)", n, len(full.Merges))
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("cancelled run left a broken module: %v", err)
	}
	diffModule(t, base, m, "cancelled")
}

// TestRunContextCancelledBeforeStart: an already-cancelled context must
// commit nothing and leave the module untouched — including under FMSA,
// whose demote/clean-up round trip would otherwise leave permanent
// residue.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{SalSSA, FMSA} {
		m := testModule(t, 4)
		before := m.String()
		res, err := RunContext(ctx, m, Config{
			Algorithm: algo, Threshold: 1, Target: costmodel.X86_64, Parallelism: 4,
		})
		if err != context.Canceled {
			t.Fatalf("%v: want context.Canceled, got %v", algo, err)
		}
		if len(res.Merges) != 0 {
			t.Errorf("%v: cancelled-before-start run committed %d merges", algo, len(res.Merges))
		}
		if m.String() != before {
			t.Errorf("%v: module changed on a cancelled-before-start run", algo)
		}
	}
}

// TestProgressEvents checks a parallel run reports one well-formed
// event per recorded merge, counted in order.
func TestProgressEvents(t *testing.T) {
	m := testModule(t, 5)
	var commits int
	res, err := RunContext(context.Background(), m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, Parallelism: 2,
		Progress: func(ev Progress) {
			commits++
			if ev.Stage != StageCommit || ev.Done != commits {
				t.Errorf("event %d: stage %v, done %d", commits, ev.Stage, ev.Done)
			}
			if ev.F1 == "" || ev.F2 == "" || ev.Merged == "" {
				t.Errorf("commit event missing names: %+v", ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits == 0 || commits != len(res.Merges) {
		t.Errorf("commit events %d != merges %d", commits, len(res.Merges))
	}
}
