package core

import (
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// familyModules generates a synth module and returns the names of up to
// want same-signature defined functions (a mergeable family prefix).
func familyPick(m *ir.Module, want int) []string {
	defined := m.Defined()
	for i, f := range defined {
		fam := []string{f.Name()}
		for j := i + 1; j < len(defined) && len(fam) < want; j++ {
			// Return-type equality is transitive, so probing each
			// candidate against the seed member suffices.
			if _, err := PlanParams(f, defined[j]); err == nil {
				fam = append(fam, defined[j].Name())
			}
		}
		if len(fam) == want {
			return fam
		}
	}
	return nil
}

// TestMergeFamilyVerifies: k-ary merges of synth functions verify and
// report sane stats for every family size the driver can grow.
func TestMergeFamilyVerifies(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for seed := int64(60); seed < 66; seed++ {
			t.Run(fmt.Sprintf("k%d-seed%d", k, seed), func(t *testing.T) {
				m := synth.Generate(synth.Profile{
					Name: "fam", Seed: seed, Funcs: 12,
					MinSize: 8, AvgSize: 40, MaxSize: 100,
					CloneFrac: 0.7, FamilySize: k, MutRate: 0.08,
					Loops: 0.6, Switches: 0.5, Floats: 0.2,
				})
				names := familyPick(m, k)
				if names == nil {
					t.Skip("no same-signature family in this seed")
				}
				fns := make([]*ir.Function, k)
				for i, n := range names {
					fns[i] = m.FuncByName(n)
				}
				merged, stats, err := MergeFamily(m, fns, "famcheck", DefaultOptions())
				if err != nil {
					t.Fatalf("MergeFamily: %v", err)
				}
				if err := ir.VerifyFunction(merged); err != nil {
					t.Fatalf("merged family does not verify: %v\n%s", err, merged)
				}
				wantFid := ir.Type(ir.I32)
				if k == 2 {
					wantFid = ir.I1
				}
				if !ir.TypesEqual(merged.Param(0).Type(), wantFid) {
					t.Errorf("fid type = %v, want %v for k=%d", merged.Param(0).Type(), wantFid, k)
				}
				if stats.Matches == 0 {
					t.Errorf("no matches across a clone family")
				}
				transform.Simplify(merged)
				if err := ir.VerifyFunction(merged); err != nil {
					t.Fatalf("simplified merged family does not verify: %v", err)
				}
			})
		}
	}
}

// TestMergeFamilyThunkBehaviour is the family interp differential
// suite: for k in {2, 3, 4}, every original must agree with its thunk
// into the k-ary merged body — same returns, same termination, same
// external trace — across the synth corpora.
func TestMergeFamilyThunkBehaviour(t *testing.T) {
	for k := 2; k <= 4; k++ {
		for seed := int64(70); seed < 76; seed++ {
			t.Run(fmt.Sprintf("k%d-seed%d", k, seed), func(t *testing.T) {
				m := synth.Generate(synth.Profile{
					Name: "famdiff", Seed: seed, Funcs: 12,
					MinSize: 8, AvgSize: 45, MaxSize: 110,
					CloneFrac: 0.7, FamilySize: k, MutRate: 0.10,
					Loops: 0.6, Switches: 0.6, ExcRate: 0.05, Floats: 0.25,
				})
				names := familyPick(m, k)
				if names == nil {
					t.Skip("no same-signature family in this seed")
				}
				orig := ir.CloneModule(m)
				fns := make([]*ir.Function, k)
				for i, n := range names {
					fns[i] = m.FuncByName(n)
				}
				plan, err := PlanParams(fns...)
				if err != nil {
					t.Fatal(err)
				}
				merged, _, err := MergeFamilyWithPlanCtx(t.Context(), m, fns, "famdiff.merged", plan, DefaultOptions())
				if err != nil {
					t.Fatalf("MergeFamily: %v", err)
				}
				transform.Simplify(merged)
				for i, f := range fns {
					BuildThunk(f, merged, i, plan.Maps[i], plan)
				}
				if err := ir.VerifyModule(m); err != nil {
					t.Fatalf("thunked module does not verify: %v", err)
				}
				for _, name := range names {
					ref := orig.FuncByName(name)
					thunk := m.FuncByName(name)
					for s := int64(1); s <= 8; s++ {
						a := interp.Run(nil, ref, interp.ArgsFor(ref, s))
						b := interp.Run(nil, thunk, interp.ArgsFor(thunk, s))
						if same, why := interp.SameBehavior(a, b); !same {
							t.Fatalf("k=%d seed=%d @%s args-seed %d: %s", k, seed, name, s, why)
						}
					}
				}
			})
		}
	}
}

// TestMergeFamilyRejectsInvalid: every generator entry point rejects
// the same invalid inputs (self-merge, declarations, short families).
func TestMergeFamilyRejectsInvalid(t *testing.T) {
	m := synth.Generate(synth.Profile{
		Name: "famrej", Seed: 1, Funcs: 3,
		MinSize: 6, AvgSize: 20, MaxSize: 40,
	})
	defined := m.Defined()
	f := defined[0]
	if _, _, err := MergeFamily(m, []*ir.Function{f}, "x", DefaultOptions()); err == nil {
		t.Error("expected error for a one-member family")
	}
	if _, _, err := MergeFamily(m, []*ir.Function{f, defined[1], f}, "x", DefaultOptions()); err == nil {
		t.Error("expected error for a repeated member")
	}
	decl := ir.NewFunction("ext", f.Sig())
	m.AddFunc(decl)
	if _, _, err := MergeFamily(m, []*ir.Function{f, decl}, "x", DefaultOptions()); err == nil {
		t.Error("expected error for a declaration member")
	}
}

// TestPairIsFamilyOfTwo: the pair entry (Merge) and a two-member family
// (MergeFamily) are one generator path — same errors, same module text,
// same stats — which is what lets the facade's MergePair be MergeFamily
// of two. Every function pair of each module is tried, and a refusal
// must come from both or neither.
func TestPairIsFamilyOfTwo(t *testing.T) {
	pairs, failed := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		m := synth.Generate(synth.Profile{
			Name: "pairfam", Seed: seed, Funcs: 8,
			MinSize: 6, AvgSize: 40, MaxSize: 120,
			CloneFrac: 0.5, FamilySize: 3, MutRate: 0.10,
			Loops: 0.5, Switches: 0.4, ExcRate: 0.05, Floats: 0.2,
		})
		defined := m.Defined()
		for i := range defined {
			for j := i + 1; j < len(defined); j++ {
				n1, n2 := defined[i].Name(), defined[j].Name()
				mp, mf := ir.CloneModule(m), ir.CloneModule(m)
				pm, ps, perr := Merge(mp, mp.FuncByName(n1), mp.FuncByName(n2), "merged", DefaultOptions())
				fm, fs, ferr := MergeFamily(mf, []*ir.Function{mf.FuncByName(n1), mf.FuncByName(n2)}, "merged", DefaultOptions())
				pairs++
				if (perr == nil) != (ferr == nil) {
					t.Fatalf("seed %d @%s+@%s: pair error %v, family error %v", seed, n1, n2, perr, ferr)
				}
				if perr != nil {
					failed++
					continue
				}
				transform.Simplify(pm)
				transform.Simplify(fm)
				if got, want := mf.String(), mp.String(); got != want {
					t.Fatalf("seed %d @%s+@%s: family of two diverges from the pair\n--- pair ---\n%s\n--- family ---\n%s", seed, n1, n2, pm, fm)
				}
				ps.BuildTime, ps.RepairTime, fs.BuildTime, fs.RepairTime = 0, 0, 0, 0
				if *ps != *fs {
					t.Fatalf("seed %d @%s+@%s: stats diverge: pair %+v, family %+v", seed, n1, n2, *ps, *fs)
				}
			}
		}
	}
	if pairs-failed < 100 {
		t.Fatalf("only %d of %d pairs merged; the sample is too small", pairs-failed, pairs)
	}
	t.Logf("%d pairs, %d merged identically, %d refused by both", pairs, pairs-failed, failed)
}
