package driver

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
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
		// the shape a tracked pair commit produces when a direct caller
		// of the head is itself consumed by a merge.
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
		memoPut(s, head, other)
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

// TestFamilyBreakForgetsHeadPairs: a family break forgets every memo
// pair naming the broken head, in either direction and whoever the
// partner — a plain function or another head — and keeps every pair
// that does not name it.
func TestFamilyBreakForgetsHeadPairs(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := chainModule(t, seed)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(context.Background(), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optimizeToFixpoint(t, s)
		var heads, plain []*ir.Function
		for _, f := range m.Defined() {
			switch {
			case s.families.isHead(f):
				heads = append(heads, f)
			case s.recs.of[f] != nil:
				plain = append(plain, f)
			}
		}
		if len(heads) < 2 {
			s.Close()
			continue
		}
		head, partner := heads[0], heads[1]
		member := m.FuncByName(s.families.byHead[head].members[0].name)
		plain = slices.DeleteFunc(plain, func(f *ir.Function) bool { return f == member })
		if len(plain) < 2 {
			t.Fatal("fewer than two indexed functions head no family")
		}
		loner, other := plain[0], plain[1]
		for _, f := range []*ir.Function{loner, partner} {
			memoPut(s, head, f)
			memoPut(s, f, head)
		}
		kept := [][2]*ir.Function{{loner, other}, {other, loner}, {partner, loner}, {other, partner}}
		for _, p := range kept {
			memoPut(s, p[0], p[1])
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
		if r := s.recs.of[head]; len(r.memo)+len(r.back) != 0 {
			t.Errorf("the broken head keeps %d memo and %d back entries", len(r.memo), len(r.back))
		}
		for _, f := range []*ir.Function{loner, partner} {
			if memoHas(s, head, f) || memoHas(s, f, head) {
				t.Errorf("the family break kept a pair between the head and @%s", f.Name())
			}
		}
		for _, p := range kept {
			if !memoHas(s, p[0], p[1]) {
				t.Errorf("the family break forgot (@%s, @%s), which does not name the head", p[0].Name(), p[1].Name())
			}
		}
		for _, r := range s.recs.of {
			checkMemo(t, s, r, "after the break")
		}
		s.Close()
		return
	}
	t.Skip("no seed produced two families")
}

// TestCommitShapes pins what one commit path registers for each shape
// of merge under family tracking: a pairwise merge of two plain
// functions records a two-member family holding the originals' bodies;
// a pairwise merge with a head on one side (a nest) records nothing and
// leaves that head's family as it was; a flatten re-registers the
// united members under the new head, keeps the stored bodies of the
// members it already had, and drops the heads it consumed.
func TestCommitShapes(t *testing.T) {
	ctx := context.Background()
	sawPair, sawFlatten, sawNest := false, false, false
	for seed := int64(1); seed <= 6; seed++ {
		base := chainModule(t, seed)
		m := ir.CloneModule(base)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s, err := OpenSession(ctx, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A tracked pair: two members, in merge order, each holding the
		// body its original had before the run.
		first, err := s.Optimize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range first.Merges {
			if !rec.Committed {
				continue
			}
			sawPair = true
			fam := s.families.byHead[m.FuncByName(rec.Merged)]
			if fam == nil || len(fam.members) != 2 {
				t.Fatalf("seed %d: pair @%s + @%s registered %v, want a two-member family", seed, rec.F1, rec.F2, fam)
			}
			for i, name := range []string{rec.F1, rec.F2} {
				mb := fam.members[i]
				if mb.name != name || mb.body.String() != base.FuncByName(name).String() {
					t.Errorf("seed %d: member %d of @%s is @%s, not @%s's original body", seed, i, rec.Merged, mb.name, name)
				}
			}
		}
		// A flatten: the registry before the run says which stored
		// bodies the new head must keep and which heads must go.
		stored := map[string]*ir.Function{}
		headOf := map[string]*ir.Function{}
		for head, fam := range s.families.byHead {
			for _, mb := range fam.members {
				stored[mb.name], headOf[mb.name] = mb.body, head
			}
		}
		texts := map[string]string{}
		for _, f := range m.Defined() {
			texts[f.Name()] = f.String()
		}
		second, err := s.Optimize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range second.Merges {
			if !rec.Committed || len(rec.Family) == 0 {
				continue
			}
			sawFlatten = true
			fam := s.families.byHead[m.FuncByName(rec.Merged)]
			if fam == nil || len(fam.members) != len(rec.Family) {
				t.Fatalf("seed %d: flatten into @%s registered %v, want %v", seed, rec.Merged, fam, rec.Family)
			}
			for i, name := range rec.Family {
				mb := fam.members[i]
				switch old := stored[name]; {
				case mb.name != name:
					t.Errorf("seed %d: member %d of @%s is @%s, want @%s", seed, i, rec.Merged, mb.name, name)
				case old != nil && mb.body != old:
					t.Errorf("seed %d: flatten into @%s replaced @%s's stored body", seed, rec.Merged, name)
				case old == nil && mb.body.String() != texts[name]:
					t.Errorf("seed %d: newcomer @%s's stored body is not its body before the run", seed, name)
				}
				if h := headOf[name]; h != nil && (s.families.isHead(h) || h.Parent() != nil) {
					t.Errorf("seed %d: consumed head @%s survived the flatten into @%s", seed, h.Name(), rec.Merged)
				}
			}
		}
		// A nest: merge a head pairwise with a plain function through
		// Apply, which commits a plan entry without a member list as a
		// pair whatever flattenFor would say.
		for head, fam := range s.families.byHead {
			var plain *ir.Function
			for _, f := range m.Defined() {
				if _, member := headOf[f.Name()]; f != head && !member && !s.families.isHead(f) &&
					s.recs.of[f] != nil && ir.TypesEqual(f.Sig().Ret, head.Sig().Ret) && !f.Sig().Variadic {
					plain = f
					break
				}
			}
			if plain == nil {
				continue
			}
			sawNest = true
			members, families := fam.members, len(s.families.byHead)
			applied, err := s.Apply(ctx, &Plan{Merges: []PlannedMerge{{
				F1: head.Name(), F2: plain.Name(),
				Hash1: search.HashFunction(head), Hash2: search.HashFunction(plain),
			}}})
			if err != nil {
				t.Fatalf("seed %d: Apply: %v", seed, err)
			}
			merged := m.FuncByName(applied.Merges[0].Merged)
			if s.families.isHead(merged) || len(s.families.byHead) != families {
				t.Errorf("seed %d: nesting @%s registered a family", seed, head.Name())
			}
			if cur := s.families.byHead[head]; cur == nil || !slices.Equal(cur.members, members) {
				t.Errorf("seed %d: nesting @%s changed its own family", seed, head.Name())
			}
			if !isThunkTo(head, merged) || !isThunkTo(plain, merged) {
				t.Errorf("seed %d: the nest did not thunk both sides into @%s", seed, merged.Name())
			}
			break
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		diffModule(t, base, m, fmt.Sprintf("seed %d", seed))
		s.Close()
	}
	if !sawPair || !sawFlatten || !sawNest {
		t.Fatalf("the chain suite no longer exercises every shape: pair %v, flatten %v, nest %v", sawPair, sawFlatten, sawNest)
	}
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
