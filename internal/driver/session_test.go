package driver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
	"repro/internal/synth"
)

// sessionCfg is the configuration the differential session tests run
// under. Their subtests are named seedN-lsh-fold=true: "lsh-" names the
// finder kind the Index answers to (search.KindLSH), and the fold=true
// is kept from when folding was optional; every session folds.
var sessionCfg = Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}

// TestSessionOptimizeMatchesOneShotReference is differential test (a):
// a Session's first Optimize must commit the merge set, and leave the
// module, that the pre-Session one-shot pipeline did. That pipeline is
// gone; its output, recorded while it still stood beside the session,
// is held as golden digests, and RunContext, the session-backed one-shot
// of today, must match the session.
func TestSessionOptimizeMatchesOneShotReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		name := fmt.Sprintf("seed%d-lsh-fold=true", seed)
		t.Run(name, func(t *testing.T) {
			c := seedCell(seed, sessionCfg, oneShot)
			c.key = "oneshot/" + name
			c.run(t)
		})
	}
}

// TestSessionUpdateEquivalence is differential test (b): after the
// caller edits the module mid-session (updateEdit),
// Update-then-Optimize must commit exactly what a fresh
// Open-from-scratch on the same module state would.
func TestSessionUpdateEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d-lsh-fold=true", seed), func(t *testing.T) {
			seedCell(seed, sessionCfg, update).run(t)
		})
	}
}

// TestSessionReplaceEquivalence: replacing a function with a new
// same-named object (remove + add) and reporting it through Update
// must retire the old object from every index — later runs must match
// a fresh session over the current module state, not merge dead code.
func TestSessionReplaceEquivalence(t *testing.T) {
	seedCell(2, sessionCfg, replace).run(t)
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
		s := open(t, m, cfg)
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
		_, scratch := matchesFresh(newOracle(t), s)
		folded := false
		for _, f := range scratch.Folds {
			folded = folded || f.Dup == twin.Name() && f.Rep == caller.Name()
		}
		if !folded {
			t.Fatalf("the fresh session did not fold @%s into @%s: %+v", twin.Name(), caller.Name(), scratch.Folds)
		}
	})
	// The byName half, on the session's LSH index: rename a live
	// function, then reuse its old name for a fresh one.
	t.Run("lsh", func(t *testing.T) {
		deltaCheck(func(s *Session) (changed, removed []string) {
			defined := s.m.Defined()
			renamed, oldName := defined[0], defined[0].Name()
			renamed.SetName(oldName + ".renamed")
			cloneAs(s.m, defined[1], oldName)
			return []string{renamed.Name(), oldName}, nil
		}, false)(newOracle(t), testModule(t, 3), sessionCfg, nil)
	})
}

// TestSessionRemoveEquivalence: deleting a function and reporting it
// through Remove must match a fresh session over the shrunken module.
func TestSessionRemoveEquivalence(t *testing.T) {
	seedCell(5, sessionCfg, remove).run(t)
}

// TestSessionPlanApplyMatchesOptimize: a dry Plan followed by Apply of
// the unfiltered plan must produce the same module as a direct
// Optimize, and Plan itself must not mutate anything.
func TestSessionPlanApplyMatchesOptimize(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d-lsh-fold=true", seed), func(t *testing.T) {
			seedCell(seed, sessionCfg, planApply).run(t)
		})
	}
}

// useList is one value's use list as it was when taken.
type useList struct {
	v     ir.Value
	owner string
	uses  []ir.Use
}

// takeUseLists copies the use list of every argument and instruction
// of m.
func takeUseLists(m *ir.Module) []useList {
	var lists []useList
	for _, f := range m.Funcs {
		for _, a := range f.Params() {
			lists = append(lists, useList{a, f.Name(), slices.Clone(ir.UsesOf(a))})
		}
		f.Instrs(func(in *ir.Instruction) bool {
			lists = append(lists, useList{in, f.Name(), slices.Clone(ir.UsesOf(in))})
			return true
		})
	}
	return lists
}

// checkUseLists holds every use list to the copy taken: same users, in
// the same order.
func checkUseLists(t testing.TB, lists []useList, when string) {
	t.Helper()
	for _, l := range lists {
		if got := ir.UsesOf(l.v); !slices.Equal(got, l.uses) {
			t.Fatalf("%s changed the use list of a %T in @%s (%d uses, %d before)", when, l.v, l.owner, len(got), len(l.uses))
		}
	}
}

// TestPlanGivesBack: a dry run retires what it consumes from the
// session's finder, as a commit does, and gives it all back when the
// walk returns — cancelled or not. Twin sessions open over one synth
// module and run two rounds. In each, one of them runs a Plan cancelled
// from its Progress callback after k proposals and then a Plan run to
// completion; after each Plan every indexed function's candidate list,
// the indexed count, the records, the module text and every use list
// must be as before it. Then both Optimize, and the planning session
// must commit what its twin, which never planned, commits. The first
// round plans folds and pair merges on a fresh session, the second
// flattens the families the first round's Optimize recorded.
func TestPlanGivesBack(t *testing.T) {
	const k = 3
	ctx := context.Background()
	var onCommit func()
	cfg := Config{
		Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64,
		MaxFamily: 4,
		Progress: func(Progress) {
			if onCommit != nil {
				onCommit()
			}
		},
	}
	m := synth.Generate(synth.SuiteProfile(160, 5))
	mTwin := ir.CloneModule(m)
	s := open(t, m, cfg)
	twin := open(t, mTwin, cfg)
	indexedNow := func() int {
		st, err := s.SearchStats()
		if err != nil {
			t.Fatal(err)
		}
		return st.Indexed
	}
	for round := range 2 {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		order := s.finder.Order()
		lists := make([][]*ir.Function, len(order))
		for i, f := range order {
			lists[i] = s.finder.Candidates(f, cfg.Threshold)
		}
		indexed := indexedNow()
		text := m.String()
		uses := takeUseLists(m)
		check := func(when string) {
			t.Helper()
			when = fmt.Sprintf("round %d: %s", round, when)
			if got := indexedNow(); got != indexed {
				t.Errorf("%s: the finder indexes %d functions, %d before", when, got, indexed)
			}
			for i, f := range order {
				if got := s.finder.Candidates(f, cfg.Threshold); !slices.Equal(got, lists[i]) {
					t.Errorf("%s: the finder lists %v for @%s, %v before", when, funcNames(got), f.Name(), funcNames(lists[i]))
				}
			}
			checkRecords(t, s, when)
			if m.String() != text {
				t.Fatalf("%s: the module changed", when)
			}
			checkUseLists(t, uses, when)
		}

		cctx, cancel := context.WithCancel(ctx)
		proposed := 0
		onCommit = func() {
			if proposed++; proposed == k {
				cancel()
			}
		}
		_, _, err := s.PlanReport(cctx)
		onCommit = nil
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled Plan returned %v", round, err)
		}
		check("cancelled Plan")

		plan, err := s.Plan(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Merges) <= k {
			t.Fatalf("round %d: the full plan proposes %d merges; the cancelled one must stop short of it", round, len(plan.Merges))
		}
		flattens := 0
		for _, pm := range plan.Merges {
			if len(pm.Family) > 0 {
				flattens++
			}
		}
		t.Logf("round %d: full plan proposes %d merges (%d flatten) and %d folds", round, len(plan.Merges), flattens, len(plan.Folds))
		check("full Plan")

		got := mustRun(t, s, nil)
		want := mustRun(t, twin, nil)
		// The Plans memoized pairs the twin has yet to try.
		sameRun(&labelled{t, fmt.Sprintf("round %d: Optimize after the Plans, against the twin", round)},
			&run{mTwin.String(), want}, &run{m.String(), got}, false)
	}
}

// TestSessionApplyFiltered: dropping entries from a plan commits
// exactly the kept prefix entries and nothing else.
func TestSessionApplyFiltered(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 2)
	s := open(t, m, cfg)
	plan, err := s.Plan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Merges) < 2 {
		t.Skip("need at least two planned merges to filter")
	}
	kept := plan.Merges[0]
	plan.Merges = plan.Merges[:1]
	res := mustRun(t, s, plan)
	if len(res.Merges) != 1 {
		t.Fatalf("filtered apply committed %d merges, want 1", len(res.Merges))
	}
	got := res.Merges[0]
	if got.F1 != kept.F1 || got.F2 != kept.F2 || got.Merged != kept.Merged || got.Profit != kept.Profit {
		t.Errorf("filtered apply committed %+v, plan said %+v", got, kept)
	}
}

// TestSessionApplyStalePlan: editing a planned function between Plan
// and Apply must fail the hash check, naming the function, with nothing
// before the stale entry lost and nothing at it committed.
func TestSessionApplyStalePlan(t *testing.T) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	m := testModule(t, 3)
	s := open(t, m, cfg)
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
	ir.BuildForwarder(victim, m.FuncByName(plan.Merges[0].F2), victim.ParamValues())
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

// forgedFoldModule has a genuine duplicate pair (@a, @d), a function of
// @a's signature with another body (@b) and one of another signature
// (@c).
const forgedFoldModule = `
define i32 @a(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %m = mul i32 %s, 3
  %r = xor i32 %m, %x
  ret i32 %r
}
define i32 @b(i32 %x, i32 %y) {
entry:
  %s = sub i32 %x, %y
  %m = mul i32 %s, 5
  %r = or i32 %m, %y
  ret i32 %r
}
define i64 @c(i64 %x) {
entry:
  %s = add i64 %x, 1
  %m = mul i64 %s, 7
  ret i64 %m
}
define i32 @d(i32 %x, i32 %y) {
entry:
  %s = add i32 %x, %y
  %m = mul i32 %s, 3
  %r = xor i32 %m, %x
  ret i32 %r
}
`

// TestSessionApplyForgedFold: the hashes in a fold only say each side
// is as planned. A hand-edited fold of two different functions of one
// signature would make @a call @b's body, and one across signatures
// cannot be built at all; Apply refuses both as stale plans and leaves
// @a as it was, and the session keeps working. A genuine fold carrying
// a made-up Profit is applied and priced as Plan priced it.
func TestSessionApplyForgedFold(t *testing.T) {
	ctx := context.Background()
	m, err := irtext.Parse(forgedFoldModule)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
	s := open(t, m, cfg)
	hash := func(name string) uint64 { return search.HashFunction(m.FuncByName(name)) }
	before := m.FuncByName("a").String()
	for _, rep := range []string{"c", "b"} {
		forged := &Plan{Folds: []PlannedFold{{Dup: "a", Rep: rep, Profit: 1, DupHash: hash("a"), RepHash: hash(rep)}}}
		if _, err := sizedRun(t, s, forged); !errors.Is(err, ErrStalePlan) {
			t.Errorf("fold of @a into @%s: got %v, want ErrStalePlan", rep, err)
		}
		if got := m.FuncByName("a").String(); got != before {
			t.Fatalf("a refused fold into @%s rewrote @a:\n%s", rep, got)
		}
	}

	plan, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Folds) != 1 {
		t.Fatalf("plan folds %+v, want the one fold of @a and @d", plan.Folds)
	}
	want := plan.Folds[0]
	plan.Folds[0].Profit = 1 << 20
	res := mustRun(t, s, plan)
	if len(res.Folds) != 1 || res.Folds[0] != (FoldRecord{Dup: want.Dup, Rep: want.Rep, Profit: want.Profit}) {
		t.Errorf("Apply recorded folds %+v, want %s -> %s at %d bytes", res.Folds, want.Dup, want.Rep, want.Profit)
	}
	if _, err := sizedRun(t, s, nil); err != nil {
		t.Fatalf("Optimize after the refused folds: %v", err)
	}
}

// TestSessionApplyMalformedPlanCommitsNothing: Apply checks every entry
// of a plan before it commits any, so a genuine plan with one malformed
// entry appended — a self-fold, a self-merge, a function named twice, a
// stale hash, a function that is gone or not a candidate, a fold of two
// different functions, an incompatible pair, a plan of another
// algorithm — is refused as a stale plan with the module byte-identical,
// and the genuine plan still applies afterwards.
func TestSessionApplyMalformedPlanCommitsNothing(t *testing.T) {
	ctx := context.Background()
	// @odd returns what no generated function returns, so it pairs with
	// none of them; @twin.b folds into @twin.a.
	m, err := irtext.Parse(synth.Generate(synth.Profile{
		Name: "malformed", Seed: 2, Funcs: 18,
		MinSize: 8, AvgSize: 45, MaxSize: 120,
		CloneFrac: 0.6, FamilySize: 3, MutRate: 0.02,
		Loops: 0.5, Floats: 0.2, Switches: 0.4,
	}).String() + `
define i1 @odd(i1 %x) {
entry:
  %y = xor i1 %x, true
  %z = and i1 %y, %x
  ret i1 %z
}
define i64 @twin.a(i64 %x, i64 %y) {
entry:
  %a = add i64 %x, %y
  %b = mul i64 %a, %x
  %c = sub i64 %b, %y
  %d = xor i64 %c, %a
  %e = mul i64 %d, %d
  %f = add i64 %e, %b
  ret i64 %f
}
define i64 @twin.b(i64 %x, i64 %y) {
entry:
  %a = add i64 %x, %y
  %b = mul i64 %a, %x
  %c = sub i64 %b, %y
  %d = xor i64 %c, %a
  %e = mul i64 %d, %d
  %f = add i64 %e, %b
  ret i64 %f
}
`)
	if err != nil {
		t.Fatal(err)
	}
	// One function the session does not index.
	hot := m.Defined()[0]
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, MaxFamily: 4, SkipHot: map[string]bool{hot.Name(): true}}
	s := open(t, m, cfg)
	// Commit the first plan's merges alone, so the next plan flattens
	// the families they made and still folds.
	first, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, &Plan{Algorithm: first.Algorithm, Merges: first.Merges})
	plan, err := s.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fams := 0
	for _, pm := range plan.Merges {
		if len(pm.Family) > 0 {
			fams++
		}
	}
	if len(plan.Folds) == 0 || fams == 0 {
		t.Fatalf("plan has %d folds and %d flattens, want both", len(plan.Folds), fams)
	}
	hash := func(f *ir.Function) uint64 { return search.HashFunction(f) }
	f0, m0 := plan.Folds[0], plan.Merges[0]
	// odd2 is a plain candidate no plan entry names.
	named := map[string]bool{hot.Name(): true, "odd": true, "twin.a": true, "twin.b": true}
	for _, pf := range plan.Folds {
		named[pf.Dup], named[pf.Rep] = true, true
	}
	for _, pm := range plan.Merges {
		named[pm.F1], named[pm.F2] = true, true
	}
	var odd2 *ir.Function
	for _, f := range m.Defined() {
		if !named[f.Name()] && ir.Forwardee(f) == nil && odd2 == nil {
			odd2 = f
		}
	}
	if odd2 == nil {
		t.Fatal("the plan names every function")
	}
	odd1 := m.FuncByName("odd")
	with := func(folds []PlannedFold, merges []PlannedMerge) *Plan {
		return &Plan{
			Algorithm: plan.Algorithm, Threshold: plan.Threshold,
			Folds:  append(slices.Clone(plan.Folds), folds...),
			Merges: append(slices.Clone(plan.Merges), merges...),
		}
	}
	other := with(nil, nil)
	other.Algorithm = SalSSANoPC.String()
	cases := []struct {
		name, why string
		p         *Plan
	}{
		{"self-fold", "twice", with([]PlannedFold{{Dup: f0.Dup, Rep: f0.Dup, DupHash: f0.DupHash, RepHash: f0.DupHash}}, nil)},
		{"self-merge", "twice", with(nil, []PlannedMerge{{F1: m0.F2, F2: m0.F2, Hash1: m0.Hash2, Hash2: m0.Hash2}})},
		{"merge-twice", "twice", with(nil, []PlannedMerge{m0})},
		{"fold-twice", "twice", with([]PlannedFold{f0}, nil)},
		{"merge-folded", "twice", with(nil, []PlannedMerge{{F1: f0.Dup, F2: odd2.Name(), Hash1: f0.DupHash, Hash2: hash(odd2)}})},
		{"stale-hash", "changed since planning", with(nil, []PlannedMerge{{F1: odd1.Name(), F2: odd2.Name(), Hash1: hash(odd1) + 1, Hash2: hash(odd2)}})},
		{"gone", "is gone", with(nil, []PlannedMerge{{F1: "no.such.function", F2: odd2.Name(), Hash2: hash(odd2)}})},
		{"not-candidate", "not a merge candidate", with(nil, []PlannedMerge{{F1: hot.Name(), F2: odd2.Name(), Hash1: hash(hot), Hash2: hash(odd2)}})},
		{"not-duplicate", "not a duplicate", with([]PlannedFold{{Dup: odd1.Name(), Rep: odd2.Name(), DupHash: hash(odd1), RepHash: hash(odd2)}}, nil)},
		{"cannot-pair", "cannot merge", with(nil, []PlannedMerge{{F1: odd1.Name(), F2: odd2.Name(), Hash1: hash(odd1), Hash2: hash(odd2)}})},
		{"other-algorithm", "produced for", other},
	}
	before := m.String()
	for _, tc := range cases {
		_, err := s.Apply(ctx, tc.p)
		if !errors.Is(err, ErrStalePlan) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: got %v, want ErrStalePlan saying %q", tc.name, err, tc.why)
		}
		if m.String() != before {
			t.Fatalf("%s: the refused plan changed the module", tc.name)
		}
	}
	res := mustRun(t, s, plan)
	if len(res.Folds) != len(plan.Folds) || len(res.Merges) != len(plan.Merges) {
		t.Fatalf("applied %d folds and %d merges, plan has %d and %d",
			len(res.Folds), len(res.Merges), len(plan.Folds), len(plan.Merges))
	}
}

// TestSessionOutcomeMemo: once the module reaches fixpoint (a run that
// commits nothing), the next Optimize must serve every trial from the
// cross-run memo instead of re-running alignment — and still decide
// identically to a fresh session.
func TestSessionOutcomeMemo(t *testing.T) {
	// Drive to fixpoint: each commit re-admits its thunks and merged
	// function as candidates (exactly as a fresh session would see
	// them), shifting candidate lists, so the memo only pays once the
	// module stops changing.
	c := seedCell(4, sessionCfg, 0)
	c.runs = 6
	s, refs := c.run(t)
	if hits := refs[0].res.OutcomeHits; hits != 0 {
		t.Errorf("first run reported %d outcome hits, want 0", hits)
	}
	steady, _ := matchesFresh(newOracle(t), s)
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
}

// TestSessionFMSA: FMSA sessions support Optimize (output held to the
// one-shot pipeline's golden digest) but refuse the Plan/Apply split.
func TestSessionFMSA(t *testing.T) {
	c := seedCell(12, Config{Algorithm: FMSA, Threshold: 2, Target: costmodel.X86_64}, 0)
	c.key = "fmsa/seed12"
	s, refs := c.run(t)
	if got := refs[0].res; claimedBytes(got) != got.BaselineBytes-got.FinalBytes {
		t.Errorf("records claim %d bytes saved, the module shrank by %d", claimedBytes(got), got.BaselineBytes-got.FinalBytes)
	}
	if _, err := s.Plan(context.Background()); err == nil {
		t.Error("FMSA Plan should error")
	}
	if _, err := sizedRun(t, s, &Plan{}); err == nil {
		t.Error("FMSA Apply should error")
	}
	// Nothing an FMSA run indexes outlives it: a record priced before
	// demotion would misprice the next run's baseline. (A second run is
	// not a sizedRun: the demotion round trip may grow the module.)
	if s.recs != nil || s.finder != nil {
		t.Fatal("the FMSA session kept its run's records or finder")
	}
	before := costmodel.ModuleBytes(s.m, s.cfg.Target)
	again := mustRun(t, s, nil)
	if again.BaselineBytes != before {
		t.Errorf("second FMSA run's baseline is %d bytes, ModuleBytes says %d", again.BaselineBytes, before)
	}
}

// TestSessionClosed: every method of a closed session fails cleanly,
// and Close is idempotent.
func TestSessionClosed(t *testing.T) {
	m := testModule(t, 1)
	s := open(t, m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64})
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
	s := open(t, m, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, MinInstrs: small.NumInstrs() + 1})
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
	mustRun(t, s, nil)
	// After the sync dropped it from the index, its name is gone for good.
	if err := s.Update(ctx, name); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("Update of a fully retired name: err = %v, want ErrUnknownFunction", err)
	}
}

// TestSessionConcurrentUse: session methods may be called from several
// goroutines; the session serializes them. Run with -race.
func TestSessionConcurrentUse(t *testing.T) {
	m := testModule(t, 6)
	s := open(t, m, sessionCfg)
	mustRun(t, s, nil)
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
	s := open(t, m, cfg)
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
