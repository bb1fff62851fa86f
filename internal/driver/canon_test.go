package driver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/synth"
)

// mergeKey flattens a merge record for set comparison.
func mergeKey(r MergeRecord) string {
	return fmt.Sprintf("%s+%s->%s@%d:%v", r.F1, r.F2, r.Merged, r.Profit, r.Committed)
}

// TestCanonOffMatchesReference: a session whose Canon config is the zero
// value must commit exactly the pre-canon pipeline's merges and folds —
// the reference one-shot walk — under both finder names, with and
// without dup-fold, and leave a byte-identical module. Canon off means no lens exists at all,
// so this pins the "opt-in" contract: nothing changes until asked.
func TestCanonOffMatchesReference(t *testing.T) {
	ctx := context.Background()
	base := synth.Profile{
		Name: "canonoff", Seed: 21, Funcs: 36,
		MinSize: 6, AvgSize: 40, MaxSize: 120,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.08,
		Loops: 0.5, Switches: 0.4,
	}
	for _, finder := range finderNames {
		for _, fold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-fold=%v", finder, fold), func(t *testing.T) {
				cfg := Config{
					Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
					DupFold: fold,
				}
				mSess := synth.Generate(base)
				mRef := synth.Generate(base)

				s, err := OpenSession(ctx, mSess, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Optimize(ctx)
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				want, err := runOneShotReference(ctx, mRef, cfg)
				if err != nil {
					t.Fatal(err)
				}

				if len(got.Merges) != len(want.Merges) {
					t.Fatalf("merge count %d, reference %d", len(got.Merges), len(want.Merges))
				}
				for i := range got.Merges {
					if mergeKey(got.Merges[i]) != mergeKey(want.Merges[i]) {
						t.Fatalf("merge %d: %s, reference %s", i, mergeKey(got.Merges[i]), mergeKey(want.Merges[i]))
					}
				}
				if fmt.Sprint(got.Folds) != fmt.Sprint(want.Folds) {
					t.Fatalf("folds %v, reference %v", got.Folds, want.Folds)
				}
				if got.FinalBytes != want.FinalBytes {
					t.Fatalf("final bytes %d, reference %d", got.FinalBytes, want.FinalBytes)
				}
				if mSess.String() != mRef.String() {
					t.Fatal("canon-off session module differs from reference module")
				}
			})
		}
	}
}

// TestCanonFoldsSupersetOnMutatedSuite: on the mutated-clone suite —
// exact duplicates hidden behind reducible noise — canon-on duplicate
// folding must fold a strict superset of what syntactic folding finds,
// save strictly more bytes overall, and preserve the observable behavior
// of every original function (the folds rewrite original bodies, so this
// is the end-to-end soundness check for GVN congruence + interp
// verification).
func TestCanonFoldsSupersetOnMutatedSuite(t *testing.T) {
	ctx := context.Background()
	for _, finder := range finderNames {
		for _, fam := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s-fam=%d", finder, fam), func(t *testing.T) {
				cfg := Config{
					Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
					DupFold: true, MaxFamily: fam,
				}
				canonCfg := cfg
				canonCfg.Canon = canon.Default()

				mOff := synth.CanonSuite(40, 3)
				mOn := synth.CanonSuite(40, 3)
				pristine := ir.CloneModule(mOn)

				sOff, err := OpenSession(ctx, mOff, cfg)
				if err != nil {
					t.Fatal(err)
				}
				resOff, err := sOff.Optimize(ctx)
				sOff.Close()
				if err != nil {
					t.Fatal(err)
				}
				sOn, err := OpenSession(ctx, mOn, canonCfg)
				if err != nil {
					t.Fatal(err)
				}
				resOn, err := sOn.Optimize(ctx)
				sOn.Close()
				if err != nil {
					t.Fatal(err)
				}

				offDups := map[string]bool{}
				for _, f := range resOff.Folds {
					offDups[f.Dup] = true
				}
				onDups := map[string]bool{}
				for _, f := range resOn.Folds {
					onDups[f.Dup] = true
				}
				for dup := range offDups {
					if !onDups[dup] {
						t.Errorf("syntactic fold of %s lost under canon", dup)
					}
				}
				if len(resOn.Folds) <= len(resOff.Folds) {
					t.Fatalf("canon folds %d, want strictly more than syntactic %d", len(resOn.Folds), len(resOff.Folds))
				}
				savedOff := resOff.BaselineBytes - resOff.FinalBytes
				savedOn := resOn.BaselineBytes - resOn.FinalBytes
				if savedOn <= savedOff {
					t.Fatalf("canon saved %d bytes, want strictly more than %d", savedOn, savedOff)
				}

				if err := ir.VerifyModule(mOn); err != nil {
					t.Fatalf("canon-optimized module invalid: %v", err)
				}
				proto := interp.NewEnv()
				for _, of := range pristine.Defined() {
					nf := mOn.FuncByName(of.Name())
					if nf == nil {
						t.Fatalf("function %s vanished", of.Name())
					}
					for seed := int64(1); seed <= 5; seed++ {
						a := interp.Run(proto, of, interp.ArgsFor(of, seed))
						b := interp.Run(proto, nf, interp.ArgsFor(nf, seed))
						if same, why := interp.SameBehavior(a, b); !same {
							t.Fatalf("@%s behavior changed (seed %d): %s", of.Name(), seed, why)
						}
					}
				}
			})
		}
	}
}

// TestCanonPlanApplyOnMutatedSuite: the dry Plan under canon proposes
// the same folds Optimize commits, and Apply commits them against the
// original bodies (stale checks are original-body hashes, so the plan
// survives the round trip untouched).
func TestCanonPlanApplyOnMutatedSuite(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		DupFold: true, Canon: canon.Default(),
	}
	mPlan := synth.CanonSuite(30, 13)
	mOpt := synth.CanonSuite(30, 13)

	s, err := OpenSession(ctx, mPlan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Folds) == 0 {
		t.Fatal("canon plan proposed no folds on the mutated suite")
	}
	rep, err := s.Apply(ctx, plan)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := ir.VerifyModule(mPlan); err != nil {
		t.Fatalf("applied module invalid: %v", err)
	}

	sOpt, err := OpenSession(ctx, mOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resOpt, err := sOpt.Optimize(ctx)
	sOpt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Folds) != len(resOpt.Folds) {
		t.Fatalf("apply committed %d folds, optimize %d", len(rep.Folds), len(resOpt.Folds))
	}
	if len(rep.Merges) != len(resOpt.Merges) {
		t.Fatalf("apply committed %d merges, optimize %d", len(rep.Merges), len(resOpt.Merges))
	}
}

// TestCanonSnapshotRoundTrip: a canon session's snapshot restores warm —
// zero finder rebuilds AND zero canonical-view builds up front (the
// recorded canonical hashes are primed into the lens) — and the first
// warm Plan matches the cold one bit for bit, whichever finder name the
// snapshot recorded.
func TestCanonSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	text := synth.CanonSuite(30, 17).String()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		DupFold: true, Canon: canon.Default(),
	}
	for _, finder := range snapshotFinders {
		t.Run(finder, func(t *testing.T) {
			m1, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			s1, err := OpenSession(ctx, m1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s1.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Canon != canon.Default().String() {
				t.Fatalf("snapshot canon guard %q, want %q", snap.Canon, canon.Default().String())
			}
			for i := range snap.Funcs {
				if snap.Funcs[i].CanonHash == 0 {
					t.Fatalf("snapshot entry %s missing canonical hash", snap.Funcs[i].Name)
				}
			}
			coldPlan, err := s1.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}

			m2, err := irtext.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := OpenSessionWithSnapshot(ctx, m2, cfg, recordedUnder(t, snap, finder))
			if err != nil {
				t.Fatalf("warm open: %v", err)
			}
			if st, _ := s2.SearchStats(); st.Built != 0 {
				t.Fatalf("warm open rebuilt %d index entries, want 0", st.Built)
			}
			warmPlan, err := s2.Plan(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, warmPlan), planJSON(t, coldPlan); got != want {
				t.Fatalf("warm canon plan differs from cold:\nwarm: %s\ncold: %s", got, want)
			}
		})
	}
}

// TestCanonSnapshotConfigGuard: fingerprints from one canonicalization
// pipeline must never seed a session running another. A canon-on
// snapshot is rejected by a canon-off session and vice versa — a hard
// validation error, not silent per-function drift.
func TestCanonSnapshotConfigGuard(t *testing.T) {
	ctx := context.Background()
	text := synth.CanonSuite(20, 19).String()
	offCfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, DupFold: true}
	onCfg := offCfg
	onCfg.Canon = canon.Default()

	snapFor := func(cfg Config) *Snapshot {
		t.Helper()
		m, err := irtext.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession(ctx, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	onSnap, offSnap := snapFor(onCfg), snapFor(offCfg)
	m, err := irtext.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSessionWithSnapshot(ctx, m, offCfg, roundTripSnapshot(t, onSnap)); err == nil {
		t.Fatal("canon-on snapshot accepted by canon-off session")
	}
	if _, err := OpenSessionWithSnapshot(ctx, m, onCfg, roundTripSnapshot(t, offSnap)); err == nil {
		t.Fatal("canon-off snapshot accepted by canon-on session")
	}
	// Same canon pipeline on both sides restores cleanly.
	if _, err := OpenSessionWithSnapshot(ctx, m, onCfg, roundTripSnapshot(t, onSnap)); err != nil {
		t.Fatalf("matching canon snapshot rejected: %v", err)
	}
}

// TestCanonIncrementalInvalidation: updating a function through the
// session must drop its canonical view — the re-indexed fingerprint has
// to reflect the new body, and a noised exact duplicate introduced by
// the update must fold on the next canon run.
func TestCanonIncrementalInvalidation(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		DupFold: true, Canon: canon.Default(),
	}
	m := synth.CanonSuite(16, 23)
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Optimize(ctx); err != nil {
		t.Fatal(err)
	}

	// Splice a semantic duplicate pair: same computation, one with the
	// operands commuted and the constant unfolded — invisible to
	// syntactic folding, canonically congruent.
	if _, err := irtext.ParseInto(m, `
define i32 @canonpair_a(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %t = mul i32 %s, 7
  ret i32 %t
}

define i32 @canonpair_b(i32 %x, i32 %y) {
entry:
  %c = add i32 6, 1
  %s = add i32 %y, %x
  %t = mul i32 %s, %c
  ret i32 %t
}
`); err != nil {
		t.Fatalf("splice: %v", err)
	}
	if err := s.Update(ctx, "canonpair_a", "canonpair_b"); err != nil {
		t.Fatalf("update: %v", err)
	}
	res, err := s.Optimize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range res.Folds {
		if (f.Dup == "canonpair_b" && f.Rep == "canonpair_a") || (f.Dup == "canonpair_a" && f.Rep == "canonpair_b") {
			found = true
		}
	}
	if !found {
		t.Fatalf("spliced semantic duplicate not folded; folds: %v", res.Folds)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module invalid after incremental canon fold: %v", err)
	}
}
