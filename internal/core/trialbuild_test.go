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

// trialPairs returns the top-1 LSH candidate pairs of the first n
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
// dense (PR 14) the sample cost 3,779 allocs per trial build (196.7 kB);
// it measures 635 since the generator builds one block per straight-line
// run of rows instead of one per row (847 before; 955 before SSA repair
// built the SSA of the offending classes directly instead of through
// stack slots; 1,006 before register promotion sized its phis and
// renamed through an undo log), and the ceiling is that figure with 5%
// of slack. The race detector drops pooled objects at random, so it has
// its own ceiling, set the same way: it measures 716 (960 before runs).
func TestTrialBuildAllocBudget(t *testing.T) {
	const parentAllocs = 3779
	ceiling := 667
	if raceEnabled {
		ceiling = 752
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

// unrepairedFamilies returns the generators of n merged bodies of three-
// and four-member synth clone families — of the larger functions, where
// a session's flatten trials spend their time — stopped where SSA repair
// takes over: every phi incoming assigned, no dominance repaired yet.
func unrepairedFamilies(tb testing.TB, n int) []*generator {
	tb.Helper()
	var gens []*generator
	for seed := int64(0); len(gens) < n; seed++ {
		if seed > int64(4*n) {
			tb.Fatalf("only %d of %d families found", len(gens), n)
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
		g, err := unrepaired(m, fns, "unrepaired", DefaultOptions())
		if err != nil {
			tb.Fatal(err)
		}
		gens = append(gens, g)
	}
	return gens
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
