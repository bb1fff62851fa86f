package driver

// Cancellation and progress reporting of a run.

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
)

// TestRunContextCancelDuringCommit cancels after the first committed
// merge; the run must stop early with ctx.Err() yet leave a consistent,
// verifying module and a truthful partial report: exactly the prefix of
// the merges an uncancelled run commits.
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
	n := len(res.Merges)
	if n == 0 || n >= len(full.Merges) {
		t.Fatalf("cancelled run committed %d merges, want in [1, %d)", n, len(full.Merges))
	}
	if d := firstDiff(full.Merges[:n], res.Merges); d != "" {
		t.Errorf("cancelled run's merges are not the uncancelled run's prefix: %s", d)
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
			Algorithm: algo, Threshold: 1, Target: costmodel.X86_64,
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

// TestProgressEvents checks a run reports one well-formed event per
// recorded merge, counted in order.
func TestProgressEvents(t *testing.T) {
	m := testModule(t, 5)
	var commits int
	res, err := RunContext(context.Background(), m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64,
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
