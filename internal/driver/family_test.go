package driver

import (
	"context"
	"errors"
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
func chainModule(t testing.TB, seed int64) *ir.Module {
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

// chainCell is the chain module of seed under the threshold-3 SalSSA
// configuration with maxFamily, optimized up to runs times.
func chainCell(seed int64, maxFamily, runs int, p paths) cell {
	return cell{
		build: func(t testing.TB) *ir.Module { return chainModule(t, seed) },
		cfg:   Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: maxFamily},
		runs:  runs, paths: p,
	}
}

// chainFixpoint optimizes the chain module of seed under maxFamily
// until a run merges nothing, within 8 runs, and returns the session,
// that run's report and the runs' flattenings.
func chainFixpoint(t testing.TB, seed int64, maxFamily int) (s *Session, last *Result, flattened int) {
	t.Helper()
	s, refs := chainCell(seed, maxFamily, 8, 0).run(t)
	last = refs[len(refs)-1].res
	if len(last.Merges) != 0 {
		t.Fatalf("no fixpoint after %d runs", len(refs))
	}
	for _, r := range refs {
		flattened += r.res.Flattened
	}
	return s, last, flattened
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
			_, nested, _ := chainFixpoint(t, seed, 2)
			_, last, flattened := chainFixpoint(t, seed, 4)
			if flattened == 0 {
				return // this seed never chained; the cross-seed check below guards vacuity
			}
			sawFlatten = true
			if last.FinalBytes >= nested.FinalBytes {
				t.Errorf("flattened module is not smaller: flattened %d bytes, nested %d bytes", last.FinalBytes, nested.FinalBytes)
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
		s, last, flattened := chainFixpoint(t, seed, 4)
		m := s.m
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
			if ir.Forwardee(thunk) != head {
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
		_, refs := chainCell(seed, 4, 2, planApply).run(&labelled{t, fmt.Sprintf("seed %d", seed)})
		for _, mr := range refs[len(refs)-1].res.Merges {
			sawFamilyPlan = sawFamilyPlan || len(mr.Family) > 0
		}
	}
	if !sawFamilyPlan {
		t.Fatal("no seed planned a flattening — the dry walk no longer proposes families")
	}
}

// TestFlattenDisabledMatchesHistoricalChains: with MaxFamily at its
// driver zero value, multi-run sessions must keep producing the nested
// pairwise chains of the pre-family pipeline (no registry, no
// flattening, Report family fields zero — the oracle holds every run
// to that) up to a run that merges nothing.
func TestFlattenDisabledMatchesHistoricalChains(t *testing.T) {
	chainFixpoint(t, 2, 0)
}

// TestFlattenRejectsMemberNewcomer: a member thunk must never meet its
// own family's head as a merge partner — the member list would contain
// the function twice and the merged body would call the removed head.
// A member thunk is a forwarding body, so the finder never lists it, and
// Apply refuses a hand-written merge of a head with its own member,
// either way round, leaving the module as it was.
func TestFlattenRejectsMemberNewcomer(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		s, _, _ := chainFixpoint(t, seed, 4)
		m := s.m
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for head, fam := range s.families.byHead {
			member := m.FuncByName(fam.members[0].name)
			if member == nil {
				t.Fatal("family member missing from module")
			}
			if slices.Contains(s.finder.Order(), member) || slices.Contains(s.finder.Candidates(head, len(m.Funcs)), member) {
				t.Errorf("seed %d: the finder lists member thunk @%s", seed, member.Name())
			}
			text := m.String()
			for _, pair := range [][2]*ir.Function{{head, member}, {member, head}} {
				_, err := s.Apply(ctx, &Plan{Merges: []PlannedMerge{{
					F1: pair[0].Name(), F2: pair[1].Name(),
					Hash1: search.HashFunction(pair[0]), Hash2: search.HashFunction(pair[1]),
				}}})
				if !errors.Is(err, ErrStalePlan) {
					t.Errorf("seed %d: Apply of @%s + @%s returned %v, want ErrStalePlan", seed, pair[0].Name(), pair[1].Name(), err)
				}
			}
			if m.String() != text {
				t.Fatalf("seed %d: a refused Apply changed the module", seed)
			}
		}
	}
}

// TestFlattenVetoedByRegistryCloneReference: a stored original-body
// clone in another family that references a head must veto that head's
// flattening — the clone would be re-merged into a call of the removed
// function on its own family's next flatten.
func TestFlattenVetoedByRegistryCloneReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s, _ := chainCell(seed, 4, 1, 0).run(t)
		m := s.m
		var head *ir.Function
		var fam *family
		for h, f := range s.families.byHead {
			head, fam = h, f
			break
		}
		if head == nil {
			continue
		}
		if hasExternalCallers(m, s.families, fam) {
			t.Fatalf("seed %d: fresh family already vetoed", seed)
		}
		// Register a fake family whose stored body calls the head —
		// the shape a tracked pair commit produces when a direct caller
		// of the head is itself consumed by a merge.
		caller := ir.NewFunction("ext.caller", ir.FuncOf(head.Sig().Ret, head.Sig().Params...))
		ir.BuildForwarder(caller, head, caller.ParamValues())
		fakeHead := ir.NewFunction("fake.head", head.Sig())
		s.families.record(fakeHead, []familyMember{{name: "ext.caller", rec: ir.Freeze(caller)}})
		if !hasExternalCallers(m, s.families, fam) {
			t.Errorf("seed %d: registry body referencing the head did not veto flattening", seed)
		}
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
		s, _, _ := chainFixpoint(t, seed, 4)
		m := s.m
		var head *ir.Function
		var fam *family
		for h, f := range s.families.byHead {
			head, fam = h, f
			break
		}
		if head == nil {
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
		member.DetachBody()
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
		s, _, _ := chainFixpoint(t, seed, 4)
		m := s.m
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
		member.DetachBody()
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
		return
	}
	t.Skip("no seed produced two families")
}

// TestCommitShapes pins what one commit path registers for each shape
// of merge under family tracking: a pairwise merge of two plain
// functions records a two-member family holding frozen records of the
// originals' bodies; a pairwise merge with a head on one side (a nest)
// records nothing and leaves that head's family as it was; a flatten
// re-registers the united members under the new head, carries over the
// records of the members it already had unchanged, freezes its
// newcomer's body, and drops the heads it consumed.
func TestCommitShapes(t *testing.T) {
	ctx := context.Background()
	sawPair, sawFlatten, sawNest := false, false, false
	for seed := int64(1); seed <= 6; seed++ {
		base := chainModule(t, seed)
		m := ir.CloneModule(base)
		cfg := Config{Algorithm: SalSSA, Threshold: 3, Target: costmodel.X86_64, MaxFamily: 4}
		s := open(t, m, cfg)
		// A tracked pair: two members, in merge order, each holding the
		// body its original had before the run.
		first := mustRun(t, s, nil)
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
				if mb.name != name || mb.rec == nil || mb.rec.Thaw().String() != base.FuncByName(name).String() {
					t.Errorf("seed %d: member %d of @%s is @%s, not a record of @%s's original body", seed, i, rec.Merged, mb.name, name)
				}
			}
		}
		// A flatten: the registry before the run says which stored
		// records the new head must keep and which heads must go.
		stored := map[string]*ir.Frozen{}
		headOf := map[string]*ir.Function{}
		for head, fam := range s.families.byHead {
			for _, mb := range fam.members {
				stored[mb.name], headOf[mb.name] = mb.rec, head
			}
		}
		texts := map[string]string{}
		for _, f := range m.Defined() {
			texts[f.Name()] = f.String()
		}
		second := mustRun(t, s, nil)
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
				case old != nil && mb.rec != old:
					t.Errorf("seed %d: flatten into @%s replaced @%s's stored record", seed, rec.Merged, name)
				case old == nil && (mb.rec == nil || mb.rec.Thaw().String() != texts[name]):
					t.Errorf("seed %d: newcomer @%s's record is not of its body before the run", seed, name)
				}
				if h := headOf[name]; h != nil && (s.families.isHead(h) || h.Parent() != nil) {
					t.Errorf("seed %d: consumed head @%s survived the flatten into @%s", seed, h.Name(), rec.Merged)
				}
			}
		}
		// A nest: merge a head pairwise with a plain function through
		// Apply, which commits a plan entry without a member list as a
		// pair whatever flattenFor would say. Two runs leave the chain
		// suite nothing plain but thunks, which never pair, so the plain
		// function is a fresh copy of one of the head's original bodies.
		for head, fam := range s.families.byHead {
			plain, _ := ir.CloneFunction(fam.members[0].rec.Thaw(), "plain."+fam.members[0].name)
			m.AddFunc(plain)
			if err := s.Update(ctx, plain.Name()); err != nil {
				t.Fatal(err)
			}
			sawNest = true
			members, families := fam.members, len(s.families.byHead)
			applied := mustRun(t, s, &Plan{Merges: []PlannedMerge{{
				F1: head.Name(), F2: plain.Name(),
				Hash1: search.HashFunction(head), Hash2: search.HashFunction(plain),
			}}})
			merged := m.FuncByName(applied.Merges[0].Merged)
			if s.families.isHead(merged) || len(s.families.byHead) != families {
				t.Errorf("seed %d: nesting @%s registered a family", seed, head.Name())
			}
			if cur := s.families.byHead[head]; cur == nil || !slices.Equal(cur.members, members) {
				t.Errorf("seed %d: nesting @%s changed its own family", seed, head.Name())
			}
			if ir.Forwardee(head) != merged || ir.Forwardee(plain) != merged {
				t.Errorf("seed %d: the nest did not thunk both sides into @%s", seed, merged.Name())
			}
			break
		}
		diffModule(t, base, m, fmt.Sprintf("seed %d", seed))
	}
	if !sawPair || !sawFlatten || !sawNest {
		t.Fatalf("the chain suite no longer exercises every shape: pair %v, flatten %v, nest %v", sawPair, sawFlatten, sawNest)
	}
}

// TestFamilyOutcomeMemoSteadyState: once a family reaches fixpoint, the
// next run must serve every attempt from the outcome memo — family
// trials are memoized like pairwise ones.
func TestFamilyOutcomeMemoSteadyState(t *testing.T) {
	s, _, _ := chainFixpoint(t, 1, 4)
	steady := mustRun(t, s, nil)
	if len(steady.Merges) != 0 {
		t.Fatalf("post-fixpoint run still merged %d", len(steady.Merges))
	}
	if steady.Attempts > 0 && steady.OutcomeHits != steady.Attempts {
		t.Errorf("steady state re-planned %d of %d trials", steady.Attempts-steady.OutcomeHits, steady.Attempts)
	}
}
