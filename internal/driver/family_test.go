package driver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/synth"
)

// chainModule generates the synth chain suite: a module dominated by
// one low-divergence clone family of three, so the greedy walk merges a
// pair on the first run and the merged function finds the third member
// on the next — the chain scenario flattening exists for.
func chainModule(t *testing.T, seed int64) *ir.Module {
	t.Helper()
	m := synth.Generate(synth.Profile{
		Name: "chain", Seed: seed, Funcs: 9,
		MinSize: 14, AvgSize: 60, MaxSize: 140,
		CloneFrac: 0.9, FamilySize: 3, MutRate: 0.04,
		Loops: 0.6, Switches: 0.5, Floats: 0.2,
	})
	if err := ir.VerifyModule(m); err != nil {
		t.Fatalf("generated module invalid: %v", err)
	}
	return m
}

// optimizeToFixpoint re-optimizes until a run commits nothing,
// accumulating flatten counts, and returns the total flattenings and
// the last run's report.
func optimizeToFixpoint(t *testing.T, s *Session) (flattened int, last *Result) {
	t.Helper()
	for i := 0; i < 8; i++ {
		res, err := s.Optimize(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		flattened += res.Flattened
		last = res
		if len(res.Merges) == 0 {
			return flattened, last
		}
	}
	t.Fatal("no fixpoint after 8 runs")
	return 0, nil
}

// TestFlattenBeatsNesting is the PR's driver acceptance test: on the
// synth chain suite, a session bounded at MaxFamily 4 must flatten at
// least one three-way family, the flattened module must be strictly
// smaller under costmodel.ModuleBytes than the nested pairwise chain a
// MaxFamily-2 session builds from the same input, and every original
// must keep its observable behaviour through the flattened thunks.
func TestFlattenBeatsNesting(t *testing.T) {
	sawFlatten := false
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := chainModule(t, seed)
			cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64}

			mNest := ir.CloneModule(base)
			cfgNest := cfg
			cfgNest.MaxFamily = 2
			sNest, err := OpenSession(context.Background(), mNest, cfgNest)
			if err != nil {
				t.Fatal(err)
			}
			defer sNest.Close()
			optimizeToFixpoint(t, sNest)

			mFlat := ir.CloneModule(base)
			cfgFlat := cfg
			cfgFlat.MaxFamily = 4
			sFlat, err := OpenSession(context.Background(), mFlat, cfgFlat)
			if err != nil {
				t.Fatal(err)
			}
			defer sFlat.Close()
			flattened, last := optimizeToFixpoint(t, sFlat)

			if err := ir.VerifyModule(mFlat); err != nil {
				t.Fatalf("flattened module does not verify: %v", err)
			}
			if err := ir.VerifyModule(mNest); err != nil {
				t.Fatalf("nested module does not verify: %v", err)
			}
			diffModule(t, base, mFlat, "flattened")

			if flattened == 0 {
				return // this seed never chained; the cross-seed check below guards vacuity
			}
			sawFlatten = true
			nested := costmodel.ModuleBytes(mNest, cfg.Target)
			flat := costmodel.ModuleBytes(mFlat, cfg.Target)
			if flat >= nested {
				t.Errorf("flattened module is not smaller: flattened %d bytes, nested %d bytes", flat, nested)
			}
			if last.Families == 0 || len(last.FamilySizes) == 0 {
				t.Errorf("family stats missing from report: %+v families, sizes %v", last.Families, last.FamilySizes)
			}
			big := 0
			for size, n := range last.FamilySizes {
				if size >= 3 {
					big += n
				}
			}
			if big == 0 {
				t.Errorf("no family of three or more after flattening: sizes %v", last.FamilySizes)
			}
		})
	}
	if !sawFlatten {
		t.Fatal("no seed exercised flattening — the chain suite no longer chains")
	}
}

// TestFlattenSingleHop: after flattening, every family member's thunk
// calls the family head directly — the chain of thunk hops nesting
// accumulates must not exist.
func TestFlattenSingleHop(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flattened, last := optimizeToFixpoint(t, s)
		s.Close()
		if flattened == 0 {
			continue
		}
		var famRec *MergeRecord
		for i := range last.Merges {
			if len(last.Merges[i].Family) >= 3 && last.Merges[i].Committed {
				famRec = &last.Merges[i]
			}
		}
		if famRec == nil {
			// The final fixpoint run commits nothing; scan an earlier
			// run's record via the registry head instead.
			return
		}
		head := m.FuncByName(famRec.Merged)
		if head == nil {
			t.Fatalf("family head @%s missing", famRec.Merged)
		}
		for _, name := range famRec.Family {
			thunk := m.FuncByName(name)
			if thunk == nil {
				t.Fatalf("family member @%s missing", name)
			}
			if !isThunkTo(thunk, head) {
				t.Errorf("member @%s does not thunk directly into @%s:\n%s", name, famRec.Merged, thunk)
			}
		}
		return
	}
	t.Skip("no seed flattened")
}

// TestFlattenPlanApply: Plan must propose the same flattening Optimize
// would commit (Family recorded on the planned merge), and Apply must
// reproduce Optimize's module bit for bit from that plan.
func TestFlattenPlanApply(t *testing.T) {
	sawFamilyPlan := false
	for seed := int64(1); seed <= 6; seed++ {
		base := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}

		// Twin A: Optimize, then Plan+Apply for the second round.
		mA := ir.CloneModule(base)
		sA, err := OpenSession(context.Background(), mA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sA.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		plan, err := sA.Plan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		famPlans := 0
		for _, pm := range plan.Merges {
			if len(pm.Family) > 0 {
				famPlans++
			}
		}
		applied, err := sA.Apply(context.Background(), plan)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if applied.Flattened != famPlans {
			t.Errorf("seed %d: Apply flattened %d, plan proposed %d", seed, applied.Flattened, famPlans)
		}
		sA.Close()

		// Twin B: two Optimize runs.
		mB := ir.CloneModule(base)
		sB, err := OpenSession(context.Background(), mB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sB.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := sB.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		sB.Close()

		if mA.String() != mB.String() {
			t.Errorf("seed %d: Plan+Apply module diverges from Optimize", seed)
		}
		if err := ir.VerifyModule(mA); err != nil {
			t.Fatalf("seed %d: applied module does not verify: %v", seed, err)
		}
		if famPlans > 0 {
			sawFamilyPlan = true
		}
	}
	if !sawFamilyPlan {
		t.Fatal("no seed planned a flattening — the dry walk no longer proposes families")
	}
}

// TestFlattenDisabledMatchesHistoricalChains: with MaxFamily at its
// driver zero value, multi-run sessions must keep producing the nested
// pairwise chains of the pre-family pipeline (no registry, no
// flattening, Report family fields zero).
func TestFlattenDisabledMatchesHistoricalChains(t *testing.T) {
	m := chainModule(t, 2)
	cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64}
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	flattened, last := optimizeToFixpoint(t, s)
	if flattened != 0 {
		t.Errorf("flattening happened with family tracking off")
	}
	if last.Families != 0 || last.FamilySizes != nil {
		t.Errorf("family stats reported with tracking off: %d, %v", last.Families, last.FamilySizes)
	}
}

// TestFlattenRejectsMemberNewcomer: a member thunk ranking as its own
// family's partner must not flatten — the member list would contain
// the function twice and the merged body would call the removed head.
// The pair nests instead (flattenFor returns nil).
func TestFlattenRejectsMemberNewcomer(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optimizeToFixpoint(t, s)
		for head, fam := range s.families.byHead {
			member := m.FuncByName(fam.members[0].name)
			if member == nil {
				t.Fatal("family member missing from module")
			}
			if fp := flattenFor(m, s.families, cfg.MaxFamily, head, member, nil); fp != nil {
				t.Errorf("seed %d: flattenFor accepted the head's own member thunk: %v", seed, fp.names)
			}
			if fp := flattenFor(m, s.families, cfg.MaxFamily, member, head, nil); fp != nil {
				t.Errorf("seed %d: flattenFor accepted a member as f1 against its head: %v", seed, fp.names)
			}
		}
		s.Close()
	}
}

// TestFlattenVetoedByRegistryCloneReference: a stored original-body
// clone in another family that references a head must veto that head's
// flattening — the clone would be re-merged into a call of the removed
// function on its own family's next flatten.
func TestFlattenVetoedByRegistryCloneReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Optimize(context.Background()); err != nil {
			t.Fatal(err)
		}
		var head *ir.Function
		var fam *family
		for h, f := range s.families.byHead {
			head, fam = h, f
			break
		}
		if head == nil {
			s.Close()
			continue
		}
		if hasExternalCallers(m, s.families, fam, nil) {
			t.Fatalf("seed %d: fresh family already vetoed", seed)
		}
		// Register a fake family whose stored body calls the head —
		// the shape recordPairFamily produces when a direct caller of
		// the head is itself consumed by a merge.
		caller := ir.NewFunction("ext.caller", ir.FuncOf(head.Sig().Ret, head.Sig().Params...))
		entry := caller.NewBlockIn("entry")
		args := make([]ir.Value, len(caller.Params()))
		for i, p := range caller.Params() {
			args[i] = p
		}
		call := ir.NewCall("", head, args...)
		entry.Append(call)
		if ir.IsVoid(head.Sig().Ret) {
			entry.Append(ir.NewRet(nil))
		} else {
			entry.Append(ir.NewRet(call))
		}
		fakeHead := ir.NewFunction("fake.head", head.Sig())
		s.families.record(fakeHead, []familyMember{{name: "ext.caller", body: caller}})
		if !hasExternalCallers(m, s.families, fam, nil) {
			t.Errorf("seed %d: registry body referencing the head did not veto flattening", seed)
		}
		s.Close()
		return
	}
	t.Skip("no seed produced a family on the first run")
}

// TestFamilyBreakInvalidatesOutcomes: when a caller edit breaks a
// family (a member stops thunking into its head), the next sync must
// drop the family AND forget the head's memoized unprofitable pairs —
// a flatten trial's profit depended on the registry state, so its memo
// entry must not suppress the pairwise nest the pair would now get.
func TestFamilyBreakInvalidatesOutcomes(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optimizeToFixpoint(t, s)
		var head *ir.Function
		var fam *family
		for h, f := range s.families.byHead {
			head, fam = h, f
			break
		}
		if head == nil {
			s.Close()
			continue
		}
		// Seed a memoized outcome against the head, as an unprofitable
		// flatten trial would.
		var other *ir.Function
		for _, f := range m.Defined() {
			if f != head && s.recs.of[f] != nil {
				other = f
				break
			}
		}
		memoPut(s, head, other, flattenOutcome)
		// Break the family: gut one member so it no longer thunks into
		// the head, and report the edit.
		member := m.FuncByName(fam.members[0].name)
		member.Clear()
		if err := s.Update(context.Background(), member.Name()); err != nil {
			t.Fatal(err)
		}
		// Drive the index sync directly: a later walk may legitimately
		// re-try and re-memoize the pair as a pairwise nest, so the
		// invalidation must be observed right after sync.
		s.mu.Lock()
		s.sync()
		s.mu.Unlock()
		if s.families.isHead(head) {
			t.Error("broken family still registered after sync")
		}
		if memoHas(s, head, other) {
			t.Error("head's memoized outcome survived the family break")
		}
		s.Close()
		return
	}
	t.Skip("no seed produced a family")
}

// TestFamilyBreakKeepsPairOutcomes: a family break forgets only the
// memo entries it can change. A pair outcome between the broken head and
// a function that heads no family stays — neither side can flatten, so
// its trial is the same pure function of two unchanged bodies — while a
// pair outcome against a partner that still heads a family goes, since
// the two may flatten now.
func TestFamilyBreakKeepsPairOutcomes(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optimizeToFixpoint(t, s)
		var heads []*ir.Function
		for _, f := range m.Defined() {
			if s.families.isHead(f) {
				heads = append(heads, f)
			}
		}
		if len(heads) < 2 {
			s.Close()
			continue
		}
		head, partner := heads[0], heads[1]
		fam := s.families.byHead[head]
		member := m.FuncByName(fam.members[0].name)
		var loner *ir.Function
		for _, f := range m.Defined() {
			if !s.families.isHead(f) && f != member && s.recs.of[f] != nil {
				loner = f
				break
			}
		}
		if loner == nil {
			t.Fatal("every function heads a family")
		}
		for _, f := range []*ir.Function{loner, partner} {
			memoPut(s, head, f, pairOutcome)
			memoPut(s, f, head, pairOutcome)
		}
		member.Clear()
		if err := s.Update(context.Background(), member.Name()); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.sync()
		s.mu.Unlock()
		if s.families.isHead(head) {
			t.Fatal("broken family still registered after sync")
		}
		if !s.families.isHead(partner) {
			t.Fatal("the partner's intact family was dropped")
		}
		if !memoHas(s, head, loner) || !memoHas(s, loner, head) {
			t.Error("the family break forgot a pair outcome against a function that heads no family")
		}
		if memoHas(s, head, partner) || memoHas(s, partner, head) {
			t.Error("the family break kept a pair outcome against a family head")
		}
		s.Close()
		return
	}
	t.Skip("no seed produced two families")
}

// TestFamilyOutcomeMemoSteadyState: once a family reaches fixpoint, the
// next run must serve every attempt from the outcome memo — family
// trials are memoized like pairwise ones.
func TestFamilyOutcomeMemoSteadyState(t *testing.T) {
	m := chainModule(t, 1)
	cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
	s, err := OpenSession(context.Background(), m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	optimizeToFixpoint(t, s)
	steady, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(steady.Merges) != 0 {
		t.Fatalf("post-fixpoint run still merged %d", len(steady.Merges))
	}
	if steady.Attempts > 0 && steady.OutcomeHits != steady.Attempts {
		t.Errorf("steady state re-planned %d of %d trials", steady.Attempts-steady.OutcomeHits, steady.Attempts)
	}
}
