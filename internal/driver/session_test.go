package driver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
)

// sessionConfig is one named cell of the differential session grid.
type sessionConfig struct {
	name string
	cfg  Config
}

// sessionConfigs is the configuration grid the differential session
// tests sweep: duplicate folding on and off. The "lsh-" prefix names
// the finder kind the Index answers to (search.KindLSH).
func sessionConfigs() []sessionConfig {
	var out []sessionConfig
	for _, fold := range []bool{false, true} {
		out = append(out, sessionConfig{fmt.Sprintf("lsh-fold=%v", fold), Config{
			Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
			DupFold: fold,
		}})
	}
	return out
}

// sizedRun is one committing run of s — Apply of p, or Optimize when p
// is nil — with the report's BaselineBytes and FinalBytes held to
// costmodel.ModuleBytes of the module before and after: the session
// sums its maintained sizes instead of re-pricing the module, and the
// two must never drift. A run that returns no error must also save
// exactly what its records claim: the committed merges' and the folds'
// profits sum to BaselineBytes - FinalBytes, so no gate decision rests
// on a saving the module never makes.
func sizedRun(t testing.TB, s *Session, p *Plan) (*Result, error) {
	t.Helper()
	before := costmodel.ModuleBytes(s.m, s.cfg.Target)
	var res *Result
	var err error
	if p == nil {
		res, err = s.Optimize(context.Background())
	} else {
		res, err = s.Apply(context.Background(), p)
	}
	if res != nil {
		if after := costmodel.ModuleBytes(s.m, s.cfg.Target); res.BaselineBytes != before || res.FinalBytes != after {
			t.Errorf("report sizes %d -> %d, costmodel.ModuleBytes says %d -> %d",
				res.BaselineBytes, res.FinalBytes, before, after)
		}
	}
	if err == nil {
		claimed := 0
		for _, mr := range res.Merges {
			if mr.Committed {
				claimed += mr.Profit
			}
		}
		for _, fr := range res.Folds {
			claimed += fr.Profit
		}
		if saved := res.BaselineBytes - res.FinalBytes; claimed != saved {
			t.Errorf("records claim %d bytes saved, the module shrank by %d", claimed, saved)
		}
	}
	return res, err
}

// TestSessionOptimizeMatchesOneShotReference is differential test (a):
// a Session's first Optimize must commit a bit-identical merge set (and
// therefore an identical module) to the retained pre-Session reference
// pipeline.
func TestSessionOptimizeMatchesOneShotReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		base := testModule(t, seed)
		for _, c := range sessionConfigs() {
			cfg := c.cfg
			t.Run(fmt.Sprintf("seed%d-%s", seed, c.name), func(t *testing.T) {
				mRef := ir.CloneModule(base)
				ref, err := runOneShotReference(context.Background(), mRef, cfg)
				if err != nil {
					t.Fatalf("reference run failed: %v", err)
				}

				mSess := ir.CloneModule(base)
				s, err := OpenSession(context.Background(), mSess, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				got, err := sizedRun(t, s, nil)
				if err != nil {
					t.Fatalf("session run failed: %v", err)
				}

				sameMerges(t, ref, got)
				if len(ref.Folds) != len(got.Folds) {
					t.Errorf("fold count differs: reference %d, session %d", len(ref.Folds), len(got.Folds))
				}
				if ref.FinalBytes != got.FinalBytes {
					t.Errorf("final bytes differ: reference %d, session %d", ref.FinalBytes, got.FinalBytes)
				}
				if a, b := mRef.String(), mSess.String(); a != b {
					t.Error("session module text diverges from the reference module")
				}
				if err := ir.VerifyModule(mSess); err != nil {
					t.Fatalf("session module does not verify: %v", err)
				}
			})
		}
	}
}

// mutateForUpdate applies a deterministic mid-session edit to m: one
// function gains a clone under a new name, and one existing function is
// replaced by a forwarder to another. It returns the names to report
// through Update.
func mutateForUpdate(t *testing.T, m *ir.Module) []string {
	t.Helper()
	defined := m.Defined()
	if len(defined) < 4 {
		t.Skip("module too small to mutate")
	}
	src := defined[1]
	clone, _ := ir.CloneFunction(src, src.Name()+".edit")
	m.AddFunc(clone)
	var edited *ir.Function
	for _, f := range defined[2:] {
		if f != src && len(f.Params()) == len(src.Params()) && f.Sig().String() == src.Sig().String() {
			edited = f
			break
		}
	}
	if edited == nil {
		return []string{clone.Name()}
	}
	search.BuildForwarder(edited, src)
	return []string{clone.Name(), edited.Name()}
}

// TestSessionUpdateEquivalence is differential test (b): after the
// caller edits the module mid-session, Update-then-Optimize must commit
// exactly what a fresh Open-from-scratch on the same module state
// would.
func TestSessionUpdateEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range sessionConfigs() {
			cfg := c.cfg
			t.Run(fmt.Sprintf("seed%d-%s", seed, c.name), func(t *testing.T) {
				m := testModule(t, seed)
				s, err := OpenSession(context.Background(), m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if _, err := sizedRun(t, s, nil); err != nil {
					t.Fatal(err)
				}

				names := mutateForUpdate(t, m)
				if err := s.Update(context.Background(), names...); err != nil {
					t.Fatal(err)
				}

				// Snapshot the post-edit state for the from-scratch twin
				// before the incremental session runs again.
				mFresh := ir.CloneModule(m)

				inc, err := sizedRun(t, s, nil)
				if err != nil {
					t.Fatal(err)
				}

				fresh, err := OpenSession(context.Background(), mFresh, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				scratch, err := sizedRun(t, fresh, nil)
				if err != nil {
					t.Fatal(err)
				}

				sameMerges(t, scratch, inc)
				if len(scratch.Folds) != len(inc.Folds) {
					t.Errorf("fold count differs: scratch %d, incremental %d", len(scratch.Folds), len(inc.Folds))
				}
				if inc.Attempts != scratch.Attempts {
					t.Errorf("attempts differ: scratch %d, incremental %d", scratch.Attempts, inc.Attempts)
				}
				if a, b := mFresh.String(), m.String(); a != b {
					t.Error("incremental module text diverges from the from-scratch module")
				}
				if err := ir.VerifyModule(m); err != nil {
					t.Fatalf("incremental module does not verify: %v", err)
				}
			})
		}
	}
}

// TestSessionReplaceEquivalence: replacing a function with a new
// same-named object (remove + add) and reporting it through Update
// must retire the old object from every index — later runs must match
// a fresh session over the current module state, not merge dead code.
func TestSessionReplaceEquivalence(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 2)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sizedRun(t, s, nil); err != nil {
		t.Fatal(err)
	}
	// Replace a live function with a clone of a different one under
	// the same name: the old object is gone from the module but would
	// linger in the indexes without Update's replacement handling.
	defined := m.Defined()
	victim, donor := defined[0], defined[1]
	name := victim.Name()
	m.RemoveFunc(victim)
	repl, _ := ir.CloneFunction(donor, name)
	m.AddFunc(repl)
	if err := s.Update(context.Background(), name); err != nil {
		t.Fatal(err)
	}
	mFresh := ir.CloneModule(m)
	inc, err := sizedRun(t, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenSession(context.Background(), mFresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	scratch, err := sizedRun(t, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMerges(t, scratch, inc)
	if a, b := mFresh.String(), m.String(); a != b {
		t.Error("incremental module text diverges from the from-scratch module after a replace")
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify: %v", err)
	}
}

// TestSessionRenameAlias: renaming a function between runs must retire
// the stale byName alias — a later Update of a new function under the
// old name must not unindex the renamed (live) one — and must reach the
// memoized hashes of its callers.
func TestSessionRenameAlias(t *testing.T) {
	// The fold-hash half: structural hashes name callees by symbol, so
	// renaming a callee changes the hash of every caller, none of which
	// was edited or reported. A caller hashed before the rename and an
	// identical one added after it must still land in one bucket and
	// fold, exactly as a fresh session folds them.
	t.Run("callee-folds", func(t *testing.T) {
		cfg := Config{
			Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
			DupFold: true,
		}
		m := testModule(t, 3)
		defined := m.Defined()
		callee := defined[0]
		// A caller of a defined (hence indexed) function: a clone of
		// another body with a call of the callee in front.
		caller, _ := ir.CloneFunction(defined[1], "caller.before")
		args := make([]ir.Value, len(callee.Params()))
		for i, p := range callee.Params() {
			args[i] = ir.NewUndef(p.Type())
		}
		caller.Entry().InsertAtFront(ir.NewCall("", callee, args...))
		m.AddFunc(caller)
		if err := ir.VerifyModule(m); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// A dry run hashes every candidate for the fold bucketing
		// and touches nothing.
		if _, err := s.Plan(context.Background()); err != nil {
			t.Fatal(err)
		}
		callee.SetName(callee.Name() + ".renamed")
		twin, _ := ir.CloneFunction(caller, "caller.after")
		m.AddFunc(twin)
		if err := s.Update(context.Background(), callee.Name(), twin.Name()); err != nil {
			t.Fatal(err)
		}
		mFresh := ir.CloneModule(m)
		inc, err := sizedRun(t, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := OpenSession(context.Background(), mFresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		scratch, err := sizedRun(t, fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		folded := false
		for _, f := range scratch.Folds {
			folded = folded || f.Dup == twin.Name() && f.Rep == caller.Name()
		}
		if !folded {
			t.Fatalf("the fresh session did not fold @%s into @%s: %+v", twin.Name(), caller.Name(), scratch.Folds)
		}
		if !reflect.DeepEqual(inc.Folds, scratch.Folds) {
			t.Errorf("folds differ after a callee rename:\nincremental %+v\nfresh       %+v", inc.Folds, scratch.Folds)
		}
		sameMerges(t, scratch, inc)
		if a, b := mFresh.String(), m.String(); a != b {
			t.Error("incremental module text diverges from the from-scratch module after a callee rename")
		}
	})
	// The byName half, on the session's LSH index.
	t.Run("lsh", func(t *testing.T) {
		cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
		m := testModule(t, 3)
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := sizedRun(t, s, nil); err != nil {
			t.Fatal(err)
		}
		// Rename a live function, then reuse its old name for a fresh one.
		defined := m.Defined()
		renamed, donor := defined[0], defined[1]
		oldName := renamed.Name()
		renamed.SetName(oldName + ".renamed")
		if err := s.Update(context.Background(), renamed.Name()); err != nil {
			t.Fatal(err)
		}
		fresh, _ := ir.CloneFunction(donor, oldName)
		m.AddFunc(fresh)
		if err := s.Update(context.Background(), oldName); err != nil {
			t.Fatal(err)
		}
		mFresh := ir.CloneModule(m)
		inc, err := sizedRun(t, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		scratchSess, err := OpenSession(context.Background(), mFresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer scratchSess.Close()
		scratch, err := sizedRun(t, scratchSess, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameMerges(t, scratch, inc)
		if a, b := mFresh.String(), m.String(); a != b {
			t.Error("incremental module text diverges from the from-scratch module after a rename")
		}
	})
}

// TestSessionRemoveEquivalence: deleting a function and reporting it
// through Remove must match a fresh session over the shrunken module.
func TestSessionRemoveEquivalence(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 5)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := sizedRun(t, s, nil); err != nil {
		t.Fatal(err)
	}
	// Delete a function nothing references (merging already thunked some;
	// pick a defined function no instruction operand mentions).
	referenced := map[*ir.Function]bool{}
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instruction) bool {
			for _, op := range in.Operands() {
				if g, ok := op.(*ir.Function); ok {
					referenced[g] = true
				}
			}
			return true
		})
	}
	var victim *ir.Function
	for _, f := range m.Defined() {
		if !referenced[f] {
			victim = f
			break
		}
	}
	if victim == nil {
		t.Skip("no unreferenced function to delete")
	}
	name := victim.Name()
	m.RemoveFunc(victim)
	if err := s.Remove(context.Background(), name); err != nil {
		t.Fatal(err)
	}
	mFresh := ir.CloneModule(m)
	inc, err := sizedRun(t, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenSession(context.Background(), mFresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	scratch, err := sizedRun(t, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMerges(t, scratch, inc)
	if a, b := mFresh.String(), m.String(); a != b {
		t.Error("incremental module text diverges from the from-scratch module")
	}
}

// TestSessionPlanApplyMatchesOptimize: a dry Plan followed by Apply of
// the unfiltered plan must produce the same module as a direct
// Optimize, and Plan itself must not mutate anything.
func TestSessionPlanApplyMatchesOptimize(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range sessionConfigs() {
			cfg := c.cfg
			t.Run(fmt.Sprintf("seed%d-%s", seed, c.name), func(t *testing.T) {
				base := testModule(t, seed)

				mOpt := ir.CloneModule(base)
				so, err := OpenSession(context.Background(), mOpt, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer so.Close()
				direct, err := sizedRun(t, so, nil)
				if err != nil {
					t.Fatal(err)
				}

				mPlan := ir.CloneModule(base)
				sp, err := OpenSession(context.Background(), mPlan, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer sp.Close()
				before := mPlan.String()
				// Plan builds its trials in place and discards them all, so
				// every use list must come back as found, users and order.
				type useList struct {
					v     ir.Value
					owner string
					uses  []ir.Use
				}
				var lists []useList
				for _, f := range mPlan.Funcs {
					for _, a := range f.Params() {
						lists = append(lists, useList{a, f.Name(), slices.Clone(ir.UsesOf(a))})
					}
					f.Instrs(func(in *ir.Instruction) bool {
						lists = append(lists, useList{in, f.Name(), slices.Clone(ir.UsesOf(in))})
						return true
					})
				}
				plan, planned, err := sp.PlanReport(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if after := mPlan.String(); after != before {
					t.Fatal("Plan mutated the module")
				}
				for _, l := range lists {
					if got := ir.UsesOf(l.v); !slices.Equal(got, l.uses) {
						t.Fatalf("Plan changed the use list of a %T in @%s (%d uses, %d before)", l.v, l.owner, len(got), len(l.uses))
					}
				}
				// The dry run runs Optimize's trials, so its funnel counts
				// are Optimize's.
				type funnelCounts struct{ Attempts, OutcomeHits, PairsScreened, DPAborted, TrialsBuilt, TrialsSkipped int }
				count := func(c Counters) funnelCounts {
					return funnelCounts{c.Attempts, c.OutcomeHits, c.PairsScreened, c.DPAborted, c.TrialsBuilt, c.TrialsSkipped}
				}
				if got, want := count(planned.Counters), count(direct.Counters); got != want {
					t.Errorf("Plan counted %+v, Optimize %+v", got, want)
				}
				if len(plan.Merges) != len(direct.Merges) {
					t.Fatalf("plan proposes %d merges, Optimize committed %d", len(plan.Merges), len(direct.Merges))
				}
				for i, pm := range plan.Merges {
					d := direct.Merges[i]
					if pm.F1 != d.F1 || pm.F2 != d.F2 || pm.Merged != d.Merged || pm.Profit != d.Profit {
						t.Errorf("plan entry %d = %+v, Optimize committed %+v", i, pm, d)
					}
				}

				// The plan must survive a JSON round trip bit-for-bit.
				blob, err := json.Marshal(plan)
				if err != nil {
					t.Fatal(err)
				}
				var decoded Plan
				if err := json.Unmarshal(blob, &decoded); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*plan, decoded) {
					t.Error("plan does not round-trip through JSON")
				}

				applied, err := sizedRun(t, sp, &decoded)
				if err != nil {
					t.Fatal(err)
				}
				// Apply's Attempts only cover the planned merges (the dry
				// run already filtered the unprofitable trials out), so
				// compare the committed records, not the work accounting.
				if got, want := mergeSet(applied), mergeSet(direct); !reflect.DeepEqual(got, want) {
					t.Errorf("applied merges differ:\n  optimize: %v\n  applied:  %v", want, got)
				}
				if applied.FinalBytes != direct.FinalBytes {
					t.Errorf("final bytes differ: optimize %d, applied %d", direct.FinalBytes, applied.FinalBytes)
				}
				if a, b := mOpt.String(), mPlan.String(); a != b {
					t.Error("Apply(Plan()) module text diverges from Optimize")
				}
				if err := ir.VerifyModule(mPlan); err != nil {
					t.Fatalf("applied module does not verify: %v", err)
				}
			})
		}
	}
}

// TestSessionApplyFiltered: dropping entries from a plan commits
// exactly the kept prefix entries and nothing else.
func TestSessionApplyFiltered(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 2)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) < 2 {
		t.Skip("need at least two planned merges to filter")
	}
	kept := plan.Merges[0]
	plan.Merges = plan.Merges[:1]
	res, err := sizedRun(t, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Merges) != 1 {
		t.Fatalf("filtered apply committed %d merges, want 1", len(res.Merges))
	}
	got := res.Merges[0]
	if got.F1 != kept.F1 || got.F2 != kept.F2 || got.Merged != kept.Merged || got.Profit != kept.Profit {
		t.Errorf("filtered apply committed %+v, plan said %+v", got, kept)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify after filtered apply: %v", err)
	}
}

// TestSessionApplyStalePlan: editing a planned function between Plan
// and Apply must fail the hash check, naming the function, with nothing
// before the stale entry lost and nothing at it committed.
func TestSessionApplyStalePlan(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 3)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) == 0 {
		t.Skip("no planned merges")
	}
	victimName := plan.Merges[0].F1
	victim := m.FuncByName(victimName)
	// Any structural change flips the hash; forward the victim to its
	// planned partner.
	search.BuildForwarder(victim, m.FuncByName(plan.Merges[0].F2))
	if err := s.Update(context.Background(), victimName); err != nil {
		t.Fatal(err)
	}
	if _, err := sizedRun(t, s, plan); err == nil {
		t.Fatal("Apply accepted a stale plan")
	}
	// A plan for a different algorithm is rejected outright.
	wrong := &Plan{Algorithm: "FMSA"}
	if _, err := sizedRun(t, s, wrong); err == nil {
		t.Error("Apply accepted a plan for another algorithm")
	}
	// A hand-edited self-fold would build an infinitely recursive
	// forwarder; Apply must refuse it.
	someName := m.Defined()[0].Name()
	h := search.HashFunction(m.FuncByName(someName))
	selfFold := &Plan{Folds: []PlannedFold{{Dup: someName, Rep: someName, DupHash: h, RepHash: h}}}
	if _, err := sizedRun(t, s, selfFold); err == nil {
		t.Error("Apply accepted a self-fold")
	}
}

// TestSessionOutcomeMemo: once the module reaches fixpoint (a run that
// commits nothing), the next Optimize must serve every trial from the
// cross-run memo instead of re-running alignment — and still decide
// identically to a fresh session.
func TestSessionOutcomeMemo(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 4)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := sizedRun(t, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.OutcomeHits != 0 {
		t.Errorf("first run reported %d outcome hits, want 0", first.OutcomeHits)
	}
	// Drive to fixpoint: each commit re-admits its thunks and merged
	// function as candidates (exactly as a fresh session would see
	// them), shifting candidate lists, so the memo only pays once the
	// module stops changing.
	for i := 0; i < 5; i++ {
		res, err := sizedRun(t, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Merges) == 0 {
			break
		}
	}
	mFresh := ir.CloneModule(m)
	steady, err := sizedRun(t, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(steady.Merges) != 0 {
		t.Skip("module did not reach fixpoint")
	}
	if steady.Attempts == 0 {
		t.Fatal("steady-state run attempted nothing")
	}
	if steady.OutcomeHits != steady.Attempts {
		t.Errorf("steady-state run re-planned %d of %d trials, want all served from the memo",
			steady.Attempts-steady.OutcomeHits, steady.Attempts)
	}
	fresh, err := OpenSession(context.Background(), mFresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	scratch, err := sizedRun(t, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMerges(t, scratch, steady)
	if a, b := mFresh.String(), m.String(); a != b {
		t.Error("memo-served re-optimize diverges from a fresh run")
	}
}

// TestSessionFMSA: FMSA sessions support Optimize (identical to the
// reference one-shot) but refuse the Plan/Apply split.
func TestSessionFMSA(t *testing.T) {
	cfg := Config{Algorithm: FMSA, Threshold: 2, Target: costmodel.X86_64}
	base := testModule(t, 12)

	mRef := ir.CloneModule(base)
	ref, err := runOneShotReference(context.Background(), mRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := ir.CloneModule(base)
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Plan(context.Background()); err == nil {
		t.Error("FMSA Plan should error")
	}
	if _, err := sizedRun(t, s, &Plan{}); err == nil {
		t.Error("FMSA Apply should error")
	}
	got, err := sizedRun(t, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMerges(t, ref, got)
	if a, b := mRef.String(), m.String(); a != b {
		t.Error("FMSA session module diverges from the reference")
	}
}

// TestSessionClosed: every method of a closed session fails cleanly,
// and Close is idempotent.
func TestSessionClosed(t *testing.T) {
	m := testModule(t, 1)
	s, err := OpenSession(context.Background(), m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ctx := context.Background()
	if _, err := s.Optimize(ctx); err == nil {
		t.Error("Optimize on closed session should error")
	}
	if _, err := s.Plan(ctx); err == nil {
		t.Error("Plan on closed session should error")
	}
	if _, err := s.Apply(ctx, &Plan{}); err == nil {
		t.Error("Apply on closed session should error")
	}
	if err := s.Update(ctx, "x"); err == nil {
		t.Error("Update on closed session should error")
	}
	if err := s.Remove(ctx, "x"); err == nil {
		t.Error("Remove on closed session should error")
	}
}

// TestSessionUpdateUnknown: a name resolving to neither a module
// function nor an indexed candidate is a clear error wrapping
// ErrUnknownFunction (not a silent no-op), and the call is atomic — an
// error means no name in the batch took effect.
func TestSessionUpdateUnknown(t *testing.T) {
	m := testModule(t, 1)
	// A high MinInstrs keeps small functions out of the index; such a
	// function is still known (it is in the module), so updating it must
	// keep working.
	var small *ir.Function
	for _, f := range m.Defined() {
		if small == nil || f.NumInstrs() < small.NumInstrs() {
			small = f
		}
	}
	s, err := OpenSession(context.Background(), m, Config{
		Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MinInstrs: small.NumInstrs() + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.Update(ctx, "no-such-function"); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("Update of unknown name: err = %v, want ErrUnknownFunction", err)
	}
	if err := s.Remove(ctx, "no-such-function"); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("Remove of unknown name: err = %v, want ErrUnknownFunction", err)
	}
	// Known-but-unindexed names are fine.
	if err := s.Update(ctx, small.Name()); err != nil {
		t.Errorf("Update of a known unindexed function: %v", err)
	}
	// Atomicity: a batch mixing a valid and an unknown name fails as a
	// whole — the valid function must not be marked, so a later Optimize
	// sees no pending delta from it.
	pendingBefore := len(s.pending)
	known := m.Defined()[0].Name()
	if err := s.Update(ctx, known, "no-such-function"); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("mixed Update batch: err = %v, want ErrUnknownFunction", err)
	}
	if len(s.pending) != pendingBefore {
		t.Errorf("failed Update batch left %d pending marks, want %d", len(s.pending), pendingBefore)
	}
	if err := s.Remove(ctx, known, "no-such-function"); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("mixed Remove batch: err = %v, want ErrUnknownFunction", err)
	}
	if len(s.pending) != pendingBefore {
		t.Errorf("failed Remove batch left %d pending marks, want %d", len(s.pending), pendingBefore)
	}
	// A function deleted from the module that the session has indexed is
	// still known: forwarding the deletion works and retires it.
	victim := m.Defined()[1]
	name := victim.Name()
	m.RemoveFunc(victim)
	if err := s.Update(ctx, name); err != nil {
		t.Errorf("Update of a deleted indexed function: %v", err)
	}
	if _, err := s.Optimize(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify: %v", err)
	}
	// After the sync dropped it from the index, its name is gone for good.
	if err := s.Update(ctx, name); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("Update of a fully retired name: err = %v, want ErrUnknownFunction", err)
	}
}

// TestSessionConcurrentUse: session methods may be called from several
// goroutines; the session serializes them. Run with -race.
func TestSessionConcurrentUse(t *testing.T) {
	m := testModule(t, 6)
	s, err := OpenSession(context.Background(), m, Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Optimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, 4)
	for _, f := range m.Defined()[:4] {
		names = append(names, f.Name())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if g%2 == 0 {
					if err := s.Update(context.Background(), names[g]); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := s.Optimize(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("module does not verify after concurrent use: %v", err)
	}
}

// TestProgressRunID: every run gets a fresh monotonic RunID, constant
// across its own events.
func TestProgressRunID(t *testing.T) {
	var ids []int64
	var perEvent []int64
	cfg := Config{
		Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
		Progress: func(ev Progress) { perEvent = append(perEvent, ev.RunID) },
	}
	m := synth.Generate(synth.Profile{
		Name: "runid", Seed: 8, Funcs: 16,
		MinSize: 8, AvgSize: 50, MaxSize: 120,
		CloneFrac: 0.7, FamilySize: 2, MutRate: 0.02, Loops: 0.5,
	})
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A dry run, then a committing one: both report the module's merges.
	for run := 0; run < 2; run++ {
		perEvent = perEvent[:0]
		var err error
		if run == 0 {
			_, err = s.Plan(context.Background())
		} else {
			_, err = sizedRun(t, s, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(perEvent) == 0 {
			t.Fatal("run emitted no progress events")
		}
		id := perEvent[0]
		for _, got := range perEvent {
			if got != id {
				t.Fatalf("run %d mixed RunIDs %d and %d", run, id, got)
			}
		}
		if id <= 0 {
			t.Errorf("run %d has non-positive RunID %d", run, id)
		}
		ids = append(ids, id)
	}
	if ids[1] <= ids[0] {
		t.Errorf("RunIDs not monotonic: %v", ids)
	}
}
