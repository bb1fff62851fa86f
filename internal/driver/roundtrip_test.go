package driver

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// TestDemotePromoteRoundTripBehaviour is the property behind FMSA's
// clean-up: RegToMem followed by Mem2Reg and Simplify must preserve the
// observable behaviour of arbitrary functions (it need not restore the
// exact instruction sequence).
func TestDemotePromoteRoundTripBehaviour(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "rt", Seed: seed, Funcs: 4,
			MinSize: 10, AvgSize: 50, MaxSize: 120,
			Loops: 0.7, Floats: 0.3, ExcRate: 0.08, Switches: 0.6,
		})
		orig := ir.CloneModule(m)
		for _, f := range m.Defined() {
			transform.RegToMem(f)
			if err := ir.VerifyFunction(f); err != nil {
				t.Fatalf("seed %d: after RegToMem: %v", seed, err)
			}
			transform.Mem2Reg(f)
			transform.Simplify(f)
			if err := ir.VerifyFunction(f); err != nil {
				t.Fatalf("seed %d: after round trip: %v", seed, err)
			}
		}
		diffModule(t, orig, m, fmt.Sprintf("roundtrip seed %d", seed))
	}
}

// TestSimplifyPreservesBehaviour: Simplify alone is semantics-preserving.
func TestSimplifyPreservesBehaviour(t *testing.T) {
	for seed := int64(200); seed < 208; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "simp", Seed: seed, Funcs: 4,
			MinSize: 10, AvgSize: 60, MaxSize: 140,
			Loops: 0.6, Switches: 0.8, ExcRate: 0.05,
		})
		orig := ir.CloneModule(m)
		for _, f := range m.Defined() {
			transform.Simplify(f)
			if err := ir.VerifyFunction(f); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		diffModule(t, orig, m, fmt.Sprintf("simplify seed %d", seed))
	}
}

// TestMergedFunctionsRunnable: merged functions themselves (not just the
// thunks) execute under the interpreter for both fid values.
func TestMergedFunctionsRunnable(t *testing.T) {
	m := testModule(t, 33)
	res := newOracle(t).runOnce(m, Config{Algorithm: SalSSA, Threshold: 2, Target: 0}, nil)
	ran := 0
	for _, rec := range res.Merges {
		if !rec.Committed {
			continue
		}
		mf := m.FuncByName(rec.Merged)
		if mf == nil {
			t.Fatalf("merged function @%s missing", rec.Merged)
		}
		for _, fid := range []bool{true, false} {
			args := interp.ArgsFor(mf, 7)
			args[0] = interp.BoolV(fid)
			out := interp.Run(nil, mf, args)
			// Undef observations are possible if the foreign function's
			// undef-padded arguments reach an external call under the
			// wrong fid — that would be a generator bug.
			if out.Err != "" && out.Err != "exception" &&
				!strings.Contains(out.Err, "step limit") {
				t.Errorf("@%s(fid=%v): %s", rec.Merged, fid, out.Err)
			}
		}
		ran++
	}
	if ran == 0 {
		t.Skip("no merges committed")
	}
}
