package driver

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

func testModule(t testing.TB, seed int64) *ir.Module {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "diff", Seed: seed, Funcs: 20,
		MinSize: 6, AvgSize: 45, MaxSize: 150,
		CloneFrac: 0.6, FamilySize: 2, MutRate: 0.05,
		Loops: 0.6, Floats: 0.2, ExcRate: 0.05, Switches: 0.5,
	})
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("generated module invalid: %v", err)
	}
	return m
}

// TestRunSalSSAPreservesBehaviour: the one-shot Run commits what a
// session's first Optimize commits, and the oracle holds both runs'
// rewritten functions to their original behaviour.
func TestRunSalSSAPreservesBehaviour(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			seedCell(seed, Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}, oneShot).run(t)
		})
	}
}

// TestRunFMSAPreservesBehaviour is TestRunSalSSAPreservesBehaviour for
// the FMSA baseline.
func TestRunFMSAPreservesBehaviour(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			seedCell(seed, Config{Algorithm: FMSA, Threshold: 2, Target: costmodel.X86_64}, oneShot).run(t)
		})
	}
}

// TestRunSalSSANoPCPreservesBehaviour is TestRunSalSSAPreservesBehaviour
// without phi-node coalescing.
func TestRunSalSSANoPCPreservesBehaviour(t *testing.T) {
	seedCell(21, Config{Algorithm: SalSSANoPC, Threshold: 2, Target: costmodel.X86_64}, oneShot).run(t)
}

func TestSalSSAReducesCloneHeavyModule(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "templates", Seed: 7, Funcs: 30,
		MinSize: 10, AvgSize: 60, MaxSize: 200,
		CloneFrac: 0.8, FamilySize: 2, MutRate: 0.02,
		Loops: 0.5,
	})
	res := newOracle(t).runOnce(m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}, nil)
	if res.Reduction() <= 0 {
		t.Errorf("SalSSA got %.2f%% reduction on a clone-heavy module, want > 0", res.Reduction())
	}
	if len(res.Merges) == 0 {
		t.Error("no merges committed on a clone-heavy module")
	}
}

func TestSalSSABeatsFMSAOnPhiHeavyCode(t *testing.T) {
	profile := synth.Profile{
		Name: "phiheavy", Seed: 9, Funcs: 40,
		MinSize: 10, AvgSize: 70, MaxSize: 220,
		CloneFrac: 0.7, FamilySize: 2, MutRate: 0.05,
		Loops: 0.9, // loops create cross-block values and phis
	}
	m1 := synth.Generate(profile)
	m2 := synth.Generate(profile)
	rs := newOracle(t).runOnce(m1, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}, nil)
	rf := newOracle(t).runOnce(m2, Config{Algorithm: FMSA, Threshold: 1, Target: costmodel.X86_64}, nil)
	if rs.Reduction() <= rf.Reduction() {
		t.Errorf("SalSSA %.2f%% <= FMSA %.2f%% on phi-heavy module (paper: SalSSA ~2x better)",
			rs.Reduction(), rf.Reduction())
	}
	if rs.PeakMatrixBytes >= rf.PeakMatrixBytes {
		t.Errorf("SalSSA peak matrix %d >= FMSA %d; demotion must inflate FMSA's sequences",
			rs.PeakMatrixBytes, rf.PeakMatrixBytes)
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	profile := synth.Profile{
		Name: "thresh", Seed: 5, Funcs: 30,
		MinSize: 8, AvgSize: 50, MaxSize: 180,
		CloneFrac: 0.6, FamilySize: 3, MutRate: 0.06,
		Loops: 0.5,
	}
	var prev float64 = -1
	for _, th := range []int{1, 5, 10} {
		m := synth.Generate(profile)
		res := newOracle(t).runOnce(m, Config{Algorithm: SalSSA, Threshold: th, Target: costmodel.X86_64}, nil)
		if res.Reduction() < prev-1.0 { // allow 1pp of greedy-ordering noise
			t.Errorf("t=%d reduction %.2f%% much worse than smaller threshold (%.2f%%)",
				th, res.Reduction(), prev)
		}
		prev = res.Reduction()
	}
}

func TestFig2PairThroughDriver(t *testing.T) {
	m := irtext.MustParse(irtext.Fig2Module)
	orig := ir.CloneModule(m)
	newOracle(t).runOnce(m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}, nil)
	// Regardless of whether the cost model accepted the merge, behaviour
	// must be preserved. Bound body's loop for F2.
	proto := interp.NewEnv()
	proto.Externals["body"] = func(args []interp.Value) (interp.Value, error) {
		return interp.IntV(args[0].Int / 3), nil
	}
	for _, name := range []string{"F1", "F2"} {
		for seed := int64(1); seed <= 8; seed++ {
			oldOut := interp.Run(proto, orig.FuncByName(name), interp.ArgsFor(orig.FuncByName(name), seed))
			newOut := interp.Run(proto, m.FuncByName(name), interp.ArgsFor(m.FuncByName(name), seed))
			if same, why := interp.SameBehavior(oldOut, newOut); !same {
				t.Fatalf("@%s behaviour changed (seed %d): %s", name, seed, why)
			}
		}
	}
}

// TestCountersAddFoldsEveryField: add is the one place a row's or a
// commit's accounting enters a Result, so a field it forgets is a metric
// that reads zero. Every field sums, except the peak.
func TestCountersAddFoldsEveryField(t *testing.T) {
	var unit, sum Counters
	uv := reflect.ValueOf(&unit).Elem()
	for i := 0; i < uv.NumField(); i++ {
		uv.Field(i).SetInt(1)
	}
	sum.add(unit)
	sum.add(unit)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		want := int64(2)
		if sv.Type().Field(i).Name == "PeakMatrixBytes" {
			want = 1
		}
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("%s folds to %d over two units, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestCodegenClocksSum: the three codegen clocks are a split of
// CodegenTime, not clocks beside it, and a merge record carries none —
// records are the same on every run.
func TestCodegenClocksSum(t *testing.T) {
	m := testModule(t, 3)
	res := newOracle(t).runOnce(m, sessionCfg, nil)
	if res.TrialsBuilt == 0 || len(res.Merges) == 0 {
		t.Fatalf("%d trials built, %d merges: nothing to time", res.TrialsBuilt, len(res.Merges))
	}
	if got := res.BuildTime + res.RepairTime + res.SimplifyTime; got != res.CodegenTime {
		t.Errorf("build %v + repair %v + simplify %v = %v, CodegenTime is %v",
			res.BuildTime, res.RepairTime, res.SimplifyTime, got, res.CodegenTime)
	}
	if res.BuildTime <= 0 || res.RepairTime <= 0 || res.SimplifyTime <= 0 {
		t.Errorf("a clock did not run: build %v, repair %v, simplify %v", res.BuildTime, res.RepairTime, res.SimplifyTime)
	}
	for _, rec := range res.Merges {
		if rec.Stats.BuildTime != 0 || rec.Stats.RepairTime != 0 {
			t.Errorf("record %s+%s carries clocks: %v, %v", rec.F1, rec.F2, rec.Stats.BuildTime, rec.Stats.RepairTime)
		}
	}
}
