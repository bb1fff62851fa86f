package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

func synthModule(seed int64) *Module {
	return synth.Generate(synth.Profile{
		Name: "api", Seed: seed, Funcs: 24,
		MinSize: 8, AvgSize: 50, MaxSize: 160,
		CloneFrac: 0.6, FamilySize: 2, MutRate: 0.03, Loops: 0.5,
	})
}

func TestNewDefaults(t *testing.T) {
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if o.Algorithm() != SalSSA {
		t.Errorf("default algorithm = %v, want SalSSA", o.Algorithm())
	}
	if o.Threshold() != 1 {
		t.Errorf("default threshold = %d, want 1", o.Threshold())
	}
	if o.Target() != X86_64 {
		t.Errorf("default target = %v, want X86_64", o.Target())
	}
	if o.Parallelism() != 1 {
		t.Errorf("default parallelism = %d, want 1", o.Parallelism())
	}
	if o.Finder() != ExactFinder {
		t.Errorf("default finder = %v, want ExactFinder", o.Finder())
	}
	if o.DupFold() {
		t.Error("duplicate folding on by default, want off")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opt  Option
	}{
		{"threshold zero", WithThreshold(0)},
		{"threshold negative", WithThreshold(-3)},
		{"algorithm unknown", WithAlgorithm(Algorithm(42))},
		{"target unknown", WithTarget(Target(42))},
		{"max cells negative", WithMaxCells(-1)},
		{"min instrs negative", WithMinInstrs(-1)},
		{"parallelism negative", WithParallelism(-2)},
		{"skip-hot empty name", WithSkipHot("f", "")},
		{"finder unknown", WithFinder(FinderKind(42))},
	}
	for _, tc := range bad {
		if _, err := New(tc.opt); err == nil {
			t.Errorf("New(%s): expected error", tc.name)
		}
	}

	o, err := New(
		WithAlgorithm(SalSSANoPC),
		WithThreshold(5),
		WithTarget(Thumb),
		WithLinearAlign(true),
		WithMaxCells(1<<20),
		WithMinInstrs(4),
		WithSkipHot("hot1", "hot2"),
		WithParallelism(3),
		WithFinder(LSHFinder),
		WithDupFold(true),
		WithProgress(func(Progress) {}),
	)
	if err != nil {
		t.Fatalf("valid option set rejected: %v", err)
	}
	if o.Algorithm() != SalSSANoPC || o.Threshold() != 5 || o.Target() != Thumb || o.Parallelism() != 3 {
		t.Errorf("options not applied: %+v", o)
	}
	if o.Finder() != LSHFinder || !o.DupFold() {
		t.Errorf("finder options not applied: finder=%v dupFold=%v", o.Finder(), o.DupFold())
	}
}

// TestWithDupFoldReportsFolds: the public pipeline must surface fold
// records and finder accounting in the Report.
func TestWithDupFoldReportsFolds(t *testing.T) {
	base := synth.Generate(synth.Profile{
		Name: "apifold", Seed: 3, Funcs: 12,
		MinSize: 10, AvgSize: 50, MaxSize: 120,
		CloneFrac: 0.7, FamilySize: 3, MutRate: 0, Loops: 0.5,
	})
	o, err := New(WithDupFold(true), WithFinder(LSHFinder))
	if err != nil {
		t.Fatal(err)
	}
	m := ir.CloneModule(base)
	rep, err := o.Optimize(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Folds) == 0 {
		t.Fatal("no folds reported on an identical-clone module")
	}
	if rep.Search.Queries == 0 {
		t.Error("no finder queries reported")
	}
	for _, fr := range rep.Folds {
		dup := m.FuncByName(fr.Dup)
		if dup == nil {
			t.Fatalf("folded function @%s vanished", fr.Dup)
		}
		if n := dup.NumInstrs(); n > 2 {
			t.Errorf("folded @%s still has %d instructions, want a forwarder", fr.Dup, n)
		}
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("folded module does not verify: %v", err)
	}
}

func TestWithParallelismZeroMeansNumCPU(t *testing.T) {
	o, err := New(WithParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if o.Parallelism() != runtime.NumCPU() {
		t.Errorf("WithParallelism(0) = %d, want runtime.NumCPU() = %d",
			o.Parallelism(), runtime.NumCPU())
	}
}

// TestParallelSameCommittedMerges: WithParallelism(4) must commit the
// same merge set as a serial run and still yield a verifying module.
// This test is the public-API face of the -race acceptance criterion.
func TestParallelSameCommittedMerges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := synthModule(seed)

		serialM := ir.CloneModule(base)
		serialOpt, err := New(WithThreshold(2))
		if err != nil {
			t.Fatal(err)
		}
		serial, err := serialOpt.Optimize(context.Background(), serialM)
		if err != nil {
			t.Fatal(err)
		}

		parM := ir.CloneModule(base)
		parOpt, err := New(WithThreshold(2), WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		par, err := parOpt.Optimize(context.Background(), parM)
		if err != nil {
			t.Fatal(err)
		}

		if len(serial.Merges) != len(par.Merges) {
			t.Fatalf("seed %d: merge counts differ: serial %d, parallel %d",
				seed, len(serial.Merges), len(par.Merges))
		}
		for i := range serial.Merges {
			a, b := serial.Merges[i], par.Merges[i]
			if a.F1 != b.F1 || a.F2 != b.F2 || a.Merged != b.Merged || a.Profit != b.Profit {
				t.Errorf("seed %d merge %d differs: serial %+v, parallel %+v", seed, i, a, b)
			}
		}
		if serial.FinalBytes != par.FinalBytes {
			t.Errorf("seed %d: final bytes differ: serial %d, parallel %d",
				seed, serial.FinalBytes, par.FinalBytes)
		}
		if err := VerifyModule(parM); err != nil {
			t.Fatalf("seed %d: parallel-merged module does not verify: %v", seed, err)
		}
	}
}

// TestOptimizerReusableConcurrently: one Optimizer, many goroutines,
// each with its own module. The progress callback increments an
// unsynchronized counter on purpose — WithProgress guarantees calls are
// serialized even across concurrent Optimize calls, and -race verifies
// it.
func TestOptimizerReusableConcurrently(t *testing.T) {
	events := 0
	o, err := New(WithThreshold(2), WithParallelism(2),
		WithProgress(func(Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			m := synthModule(seed)
			if _, err := o.Optimize(context.Background(), m); err != nil {
				errs <- fmt.Errorf("seed %d: %w", seed, err)
				return
			}
			if err := VerifyModule(m); err != nil {
				errs <- fmt.Errorf("seed %d: verify: %w", seed, err)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if events == 0 {
		t.Error("progress callback never fired")
	}
}

// TestOptimizeCancellation: cancelling mid-run stops the pipeline with
// ctx.Err() but leaves a consistent module.
func TestOptimizeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	o, err := New(WithProgress(func(ev Progress) {
		if ev.Stage == StageCommit {
			once.Do(cancel)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	m := synthModule(9)
	rep, err := o.Optimize(ctx, m)
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled Optimize returned nil report")
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("cancelled run left a broken module: %v", err)
	}
}

func TestOptimizeNilModule(t *testing.T) {
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(context.Background(), nil); err == nil {
		t.Error("Optimize(nil) should error")
	}
}

func TestMergePair(t *testing.T) {
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseModule(irtext.Fig2Module)
	if err != nil {
		t.Fatal(err)
	}
	merged, stats, err := o.MergePair(context.Background(), m, "F1", "F2")
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil || stats == nil {
		t.Fatal("nil result")
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}

	if _, _, err := o.MergePair(context.Background(), m, "F1", "missing"); err == nil {
		t.Error("expected error for missing function")
	}

	fmsaOpt, err := New(WithAlgorithm(FMSA))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fmsaOpt.MergePair(context.Background(), m, "F1", "F2"); err == nil {
		t.Error("FMSA MergePair should error")
	}
}

// TestMergePairNameCollision: a function already named like the merged
// result must not be clobbered in the module's name index.
func TestMergePairNameCollision(t *testing.T) {
	src := irtext.Fig2Module + "\ndefine void @merged.F1.F2() {\ne:\n  ret void\n}\n"
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := o.MergePair(context.Background(), m, "F1", "F2")
	if err != nil {
		t.Fatal(err)
	}
	if merged.Name() == "merged.F1.F2" {
		t.Errorf("merged function reused the taken name %q", merged.Name())
	}
	if m.FuncByName("merged.F1.F2") == nil || m.FuncByName(merged.Name()) != merged {
		t.Error("module name index corrupted by collision")
	}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMergePairCancelled: a pre-cancelled context aborts the merge and
// leaves the module exactly as it was.
func TestMergePairCancelled(t *testing.T) {
	o, err := New()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseModule(irtext.Fig2Module)
	if err != nil {
		t.Fatal(err)
	}
	before := FormatModule(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := o.MergePair(ctx, m, "F1", "F2"); err == nil {
		t.Fatal("cancelled MergePair should error")
	}
	if after := FormatModule(m); after != before {
		t.Error("cancelled MergePair mutated the module")
	}
}

// TestSkipHotRespected via the public API.
func TestSkipHotRespected(t *testing.T) {
	base := synthModule(11)
	free, err := New(WithThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := free.Optimize(context.Background(), ir.CloneModule(base))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Merges) == 0 {
		t.Skip("no merges on this module")
	}
	hot := rep.Merges[0].F1
	o, err := New(WithThreshold(1), WithSkipHot(hot))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := o.Optimize(context.Background(), ir.CloneModule(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep2.Merges {
		if rec.F1 == hot || rec.F2 == hot {
			t.Errorf("skip-hot function %q was merged anyway", hot)
		}
	}
}
