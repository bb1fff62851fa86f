package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

// trialPair is one candidate pair ready for the code generator: the
// originals, their alignment and their parameter plan.
type trialPair struct {
	f1, f2 *ir.Function
	ares   *align.Result
	plan   *ParamPlan
}

// trialPairs returns the top-1 candidate pairs of the first n
// mergeable functions of the seeded 2k corpus, visited in a seeded
// order — the sample bench/layers.go replays, minus the harness.
func trialPairs(tb testing.TB, n int) []trialPair {
	tb.Helper()
	m := corpus.Build(corpus.Config{Funcs: 2000, Seed: 7})
	funcs := m.Defined()
	rand.New(rand.NewSource(1)).Shuffle(len(funcs), func(i, j int) { funcs[i], funcs[j] = funcs[j], funcs[i] })
	finder := search.New(search.KindLSH, m.Defined())
	var pairs []trialPair
	for _, f := range funcs {
		if len(pairs) == n {
			break
		}
		got := finder.Candidates(f, 1)
		if len(got) == 0 {
			continue
		}
		plan, err := PlanParams(f, got[0])
		if err != nil {
			continue
		}
		ares, err := align.AlignFunctions(f, got[0], align.DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		pairs = append(pairs, trialPair{f1: f, f2: got[0], ares: ares, plan: plan})
	}
	if len(pairs) != n {
		tb.Fatalf("corpus yields %d candidate pairs, want %d", len(pairs), n)
	}
	return pairs
}

// build takes the pair through what one trial costs after alignment:
// generate the merged body into a scratch module, clean it up, and build
// both thunks (into fresh shells, so the originals survive for the next
// run).
func (p trialPair) build(tb testing.TB) *ir.Function {
	scratch := ir.NewModule()
	merged, _, err := MergeAlignedCtx(context.Background(), scratch, p.f1, p.f2, "merged", p.ares, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	transform.Simplify(merged)
	for member, f := range []*ir.Function{p.f1, p.f2} {
		BuildThunk(ir.NewFunction(f.Name(), f.Sig()), merged, member, p.plan.Maps[member], p.plan)
	}
	return merged
}

const trialBuildPairs = 400

// BenchmarkTrialBuild measures one trial build per op; run it with
// -benchtime 400x (or a multiple) so every pair of the sample weighs
// equally.
func BenchmarkTrialBuild(b *testing.B) {
	pairs := trialPairs(b, trialBuildPairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs[i%len(pairs)].build(b)
	}
}

// TestTrialBuildAllocBudget keeps trial codegen allocation-lean. At the
// commit before blocks, dominators and the generator's tables became
// dense the sample cost 3,779 allocs per trial build (196.7 kB); it
// measures 576 since the generator stopped copying operands onto the
// originals' use lists (577 before: AllocsPerRun's warm-up sweep had
// already grown those lists, so only a first sweep saw the regrowth —
// BenchmarkTrialBuild, one sweep at 400x, fell from 607 to 573), 577
// since the alignment rows, coalescing's tables, the dominator tree and
// SSA construction's buffers outlive the trial (635
// before; 847 before the generator built one block per straight-line
// run of rows; 955 before SSA repair built the SSA of the offending
// classes directly instead of through stack slots; 1,006 before
// register promotion sized its phis and renamed through an undo log),
// and the ceiling is that figure with 5% of slack. The race detector
// drops pooled objects at random, so it has its own ceiling, set the
// same way: it measures 674–683 (716 before; 960 before runs).
func TestTrialBuildAllocBudget(t *testing.T) {
	const parentAllocs = 3779
	ceiling := 605
	if raceEnabled {
		ceiling = 713
	}
	pairs := trialPairs(t, trialBuildPairs)
	perSweep := testing.AllocsPerRun(1, func() {
		for _, p := range pairs {
			p.build(t)
		}
	})
	got := perSweep / float64(len(pairs))
	t.Logf("%.0f allocs per trial build (ceiling %d, parent %d)", got, ceiling, parentAllocs)
	if got > float64(ceiling) {
		t.Errorf("%.0f allocs per trial build, ceiling %d", got, ceiling)
	}
}

// discard takes the pair through a losing trial: generate and clean up
// the merged body as build does, price it — a walk over every
// instruction, as costmodel.FuncBytes makes (core cannot import the cost
// model) — and release the body, without thunks, since a losing trial
// commits nothing.
func (p trialPair) discard(tb testing.TB, scratch *ir.Module) int {
	merged, _, err := MergeAlignedCtx(context.Background(), scratch, p.f1, p.f2, "merged", p.ares, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	transform.Simplify(merged)
	price := 0
	merged.Instrs(func(in *ir.Instruction) bool {
		price += 1 + in.NumOperands()
		return true
	})
	scratch.RemoveFunc(merged)
	ir.Release(merged)
	return price
}

// BenchmarkTrialDiscard measures one losing trial per op — the build of
// BenchmarkTrialBuild less the thunks, then pricing and ir.Release —
// over the same sample; run it with -benchtime 400x (or a multiple).
// After the first sweep the body comes out of the pools the previous
// losers went into.
func BenchmarkTrialDiscard(b *testing.B) {
	pairs := trialPairs(b, trialBuildPairs)
	scratch := ir.NewModule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs[i%len(pairs)].discard(b, scratch)
	}
}

// TestTrialDiscardAllocBudget keeps the losing path lean: a trial that
// is built, priced and released should reuse what the last loser
// released — its body, and the generator's and repair's working
// memory — instead of allocating its own. Before bodies were released
// and the tables pooled the sample cost 585 allocs per losing trial
// (43.5 kB under BenchmarkTrialDiscard); it measures 194 with warm pools
// (15.2 kB; 245 and 21.9 kB while the alignment rows, coalescing's
// tables, the dominator tree and SSA construction's buffers died with
// the trial), and the ceiling is that figure with 5% of slack. The race
// detector drops pooled objects at random, so it has its own ceiling,
// set the same way: it measures 385–386 (425 before).
func TestTrialDiscardAllocBudget(t *testing.T) {
	const unreleasedAllocs = 585
	ceiling := 204
	if raceEnabled {
		ceiling = 406
	}
	// The package's TestMain poisons released bodies instead of pooling
	// them; this budget is about the pools.
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = nil
	defer func() { ir.ReleaseCheck = saved }()
	pairs := trialPairs(t, trialBuildPairs)
	scratch := ir.NewModule()
	perSweep := testing.AllocsPerRun(1, func() {
		for _, p := range pairs {
			p.discard(t, scratch)
		}
	})
	got := perSweep / float64(len(pairs))
	t.Logf("%.0f allocs per losing trial (ceiling %d, %d before release)", got, ceiling, unreleasedAllocs)
	if got > float64(ceiling) {
		t.Errorf("%.0f allocs per losing trial, ceiling %d", got, ceiling)
	}
}

// trialFamily is one family ready for a flatten trial: its members, in
// the module they live in, and their parameter plan.
type trialFamily struct {
	m    *ir.Module
	fns  []*ir.Function
	plan *ParamPlan
}

// trialFamilies returns n three- and four-member synth clone families —
// of the larger functions, where a session's flatten trials spend their
// time.
func trialFamilies(tb testing.TB, n int) []trialFamily {
	tb.Helper()
	var fams []trialFamily
	for seed := int64(0); len(fams) < n; seed++ {
		if seed > int64(4*n) {
			tb.Fatalf("only %d of %d families found", len(fams), n)
		}
		k := 3 + int(seed%2)
		m := synth.Generate(synth.Profile{
			Name: "fam", Seed: 60 + seed, Funcs: 12,
			MinSize: 30, AvgSize: 120, MaxSize: 220,
			CloneFrac: 0.7, FamilySize: k, MutRate: 0.08,
			Loops: 0.6, Switches: 0.5, Floats: 0.2,
		})
		names := familyPick(m, k)
		if names == nil {
			continue
		}
		fns := make([]*ir.Function, k)
		for i, name := range names {
			fns[i] = m.FuncByName(name)
		}
		plan, err := PlanParams(fns...)
		if err != nil {
			tb.Fatal(err)
		}
		fams = append(fams, trialFamily{m: m, fns: fns, plan: plan})
	}
	return fams
}

// unrepairedFamilies returns the generators of the merged bodies of
// trialFamilies(n), stopped where SSA repair takes over: every phi
// incoming assigned, no dominance repaired yet.
func unrepairedFamilies(tb testing.TB, n int) []*generator {
	tb.Helper()
	var gens []*generator
	for _, fam := range trialFamilies(tb, n) {
		g, err := unrepaired(fam.m, fam.fns, "unrepaired", DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		gens = append(gens, g)
	}
	return gens
}

// flatten takes the family through a losing flatten trial, the common
// case: align the members progressively, generate and clean up the k-ary
// body, price it (as discard does) and release it.
func (fam trialFamily) flatten(tb testing.TB, scratch *ir.Module) int {
	merged, _, err := MergeFamilyWithPlanCtx(context.Background(), scratch, fam.fns, "merged", fam.plan, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	transform.Simplify(merged)
	price := 0
	merged.Instrs(func(in *ir.Instruction) bool {
		price += 1 + in.NumOperands()
		return true
	})
	scratch.RemoveFunc(merged)
	ir.Release(merged)
	return price
}

// BenchmarkFlattenTrial measures one losing flatten trial per op over
// the families of BenchmarkRepairSSA; run it with -benchtime 50x (or a
// multiple) for even sweeps.
func BenchmarkFlattenTrial(b *testing.B) {
	fams := trialFamilies(b, repairBodies)
	scratch := ir.NewModule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fams[i%len(fams)].flatten(b, scratch)
	}
}

// TestFlattenTrialAllocBudget keeps the flatten trial allocation-lean:
// flattens are more than half the trials a churning session builds. Before
// the alignment rows, coalescing's tables, the dominator tree and SSA
// construction's buffers outlived the trial it measured 3,203 allocs per
// trial (278.6 kB under BenchmarkFlattenTrial); it measures 2,830
// (180.9 kB), and the ceiling is that figure with 5% of slack. The race
// detector drops pooled objects at random, so it has its own ceiling,
// set the same way: it measures 3,969–3,986.
func TestFlattenTrialAllocBudget(t *testing.T) {
	const parentAllocs = 3203
	ceiling := 2972
	if raceEnabled {
		ceiling = 4186
	}
	// The package's TestMain poisons released bodies instead of pooling
	// them; this budget is about the pools.
	saved := ir.ReleaseCheck
	ir.ReleaseCheck = nil
	defer func() { ir.ReleaseCheck = saved }()
	fams := trialFamilies(t, repairBodies)
	scratch := ir.NewModule()
	for _, fam := range fams {
		fam.flatten(t, scratch) // warm the pools
	}
	perSweep := testing.AllocsPerRun(1, func() {
		for _, fam := range fams {
			fam.flatten(t, scratch)
		}
	})
	got := perSweep / float64(len(fams))
	t.Logf("%.0f allocs per flatten trial (ceiling %d, parent %d)", got, ceiling, parentAllocs)
	if got > float64(ceiling) {
		t.Errorf("%.0f allocs per flatten trial, ceiling %d", got, ceiling)
	}
}

const repairBodies = 50

// BenchmarkRepairSSA measures the whole of SSA repair — the offender
// scan, SSA construction over the offending classes, landingpad
// promotion and the phi/select folds to their fixpoint — on one k-ary
// family body per op, each a fresh copy of the unrepaired body made off
// the clock; run it with -benchtime 50x (or a multiple) for one even
// sweep.
func BenchmarkRepairSSA(b *testing.B) {
	gens := unrepairedFamilies(b, repairBodies)
	copies := make([]*generator, len(gens))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i % len(gens)
		if at == 0 {
			// One sweep's copies at a time: stopping the clock costs more
			// than a small body does.
			b.StopTimer()
			for j, g := range gens {
				copies[j] = g.clone("unrepaired")
			}
			b.StartTimer()
		}
		copies[at].repairSSA()
	}
}

// TestOneDomTreePerMergedBody: SSA repair, register promotion and the
// fold fixpoint share the tree repairSSA builds; only splitting an
// invoke's normal edge (which adds a block) buys a second one.
func TestOneDomTreePerMergedBody(t *testing.T) {
	check := func(f1, f2 *ir.Function) (split bool) {
		ares, err := align.AlignFunctions(f1, f2, align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := analysis.TreesBuilt()
		merged, _, err := MergeAlignedCtx(context.Background(), ir.NewModule(), f1, f2, "merged", ares, DefaultOptions())
		if err != nil {
			return false
		}
		built := analysis.TreesBuilt() - before
		for _, b := range merged.Blocks {
			split = split || strings.HasSuffix(b.Name(), ".normal")
		}
		want := int64(1)
		if split {
			want = 2
		}
		if built != want {
			t.Errorf("@%s + @%s: %d dominator trees built, want %d (invoke edge split: %v)", f1.Name(), f2.Name(), built, want, split)
		}
		return split
	}
	for _, p := range trialPairs(t, 100) {
		check(p.f1, p.f2)
	}
	// Code with invokes, so that the split path is taken too.
	prof, _ := synth.ByName(synth.SPEC2006(), "447.dealII")
	m := synth.Generate(prof)
	finder := search.New(search.KindExact, m.Defined())
	splits := 0
	for _, f := range m.Defined() {
		if got := finder.Candidates(f, 1); len(got) > 0 && check(f, got[0]) {
			splits++
		}
	}
	if splits == 0 {
		t.Error("no merge split an invoke edge; the two-tree case went untested")
	}
}
