package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/transform"
)

// irreducible reports whether clean-up leaves f alone, the premise under
// which CountForced's items are certain to survive.
func irreducible(f *ir.Function) bool {
	c, _ := ir.CloneFunction(f, f.Name())
	promotable := false
	c.Instrs(func(in *ir.Instruction) bool {
		promotable = transform.IsPromotable(in)
		return !promotable
	})
	return !promotable && transform.Simplify(c) == 0
}

// checkForcedAgainstGenerator merges the pair for real and holds
// CountForced to what the generator did: never more selects or label
// selections than it reports, and, for irreducible pairs, never more
// selects and branches on the identifier than the simplified body still
// holds.
func checkForcedAgainstGenerator(t *testing.T, p trialPair) (counted Forced, held bool) {
	t.Helper()
	opts := DefaultOptions()
	n1, n2 := NewNumbering(p.f1), NewNumbering(p.f2)
	got := CountForced(p.ares.Pairs, &n1, &n2, p.plan)
	merged, stats, err := MergeAlignedCtx(context.Background(), ir.NewModule(), p.f1, p.f2, "merged", p.ares, opts)
	if err != nil {
		t.Fatal(err)
	}
	name := p.f1.Name() + "/" + p.f2.Name()
	if got.Selects > stats.Selects {
		t.Errorf("%s: %d selects counted, the generator emitted %d", name, got.Selects, stats.Selects)
	}
	if got.LabelSelections > stats.LabelSelections+stats.XorRewrites {
		t.Errorf("%s: %d label selections counted, the generator emitted %d and %d xor rewrites",
			name, got.LabelSelections, stats.LabelSelections, stats.XorRewrites)
	}
	if !irreducible(p.f1) || !irreducible(p.f2) {
		return got, false
	}
	transform.Simplify(merged)
	fid := ir.Value(merged.Param(0))
	selects, branches := 0, 0
	merged.Instrs(func(in *ir.Instruction) bool {
		switch {
		case in.Op() == ir.OpSelect && in.Operand(0) == fid:
			selects++
		case in.IsCondBr() && in.Operand(0) == fid, in.Op() == ir.OpXor && in.Operand(1) == fid:
			branches++
		}
		return true
	})
	if got.Selects > selects {
		t.Errorf("%s: %d selects counted, %d survive\n%s\n%s\n%s", name, got.Selects, selects, p.f1, p.f2, merged)
	}
	if n := got.FidBranches + got.LabelSelections + got.BranchUpgrades; n > branches {
		t.Errorf("%s: %d branches on the identifier counted (%+v), %d survive\n%s\n%s\n%s", name, n, got, branches, p.f1, p.f2, merged)
	}
	return got, true
}

func TestCountForcedAgainstGenerator(t *testing.T) {
	var sum Forced
	held := 0
	check := func(p trialPair) {
		got, ok := checkForcedAgainstGenerator(t, p)
		if ok {
			held++
			sum.Selects += got.Selects
			sum.FidBranches += got.FidBranches
			sum.LabelSelections += got.LabelSelections
			sum.BranchUpgrades += got.BranchUpgrades
			sum.Rejoins += got.Rejoins
		}
	}
	pairs := trialPairs(t, trialBuildPairs)
	for _, p := range pairs {
		check(p)
	}
	// The same code in another block order: branches and labels left
	// unmatched next to matched code, which one-layout clone families
	// never produce.
	rng := rand.New(rand.NewSource(1))
	for _, p := range pairs[:100] {
		if len(p.f2.Blocks) < 3 {
			continue
		}
		c, _ := ir.CloneFunction(p.f2, p.f2.Name()+".shuffled")
		order := append([]*ir.Block(nil), c.Blocks...)
		rng.Shuffle(len(order)-1, func(x, y int) { order[x+1], order[y+1] = order[y+1], order[x+1] })
		c.SetBlockOrder(order)
		ares, err := align.AlignFunctions(p.f1, c, align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(trialPair{f1: p.f1, f2: c, ares: ares, plan: p.plan})
	}
	// Code with invokes, landingpads and switches.
	prof, _ := synth.ByName(synth.SPEC2006(), "447.dealII")
	m := synth.Generate(prof)
	finder := search.New(search.KindExact, m.Defined())
	for _, f := range m.Defined() {
		cands := finder.Candidates(f, 1)
		if len(cands) == 0 {
			continue
		}
		plan, err := PlanParams(f, cands[0])
		if err != nil {
			continue
		}
		ares, err := align.AlignFunctions(f, cands[0], align.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check(trialPair{f1: f, f2: cands[0], ares: ares, plan: plan})
	}
	t.Logf("%d irreducible pairs: %+v", held, sum)
	if sum.Selects == 0 || sum.FidBranches == 0 || sum.LabelSelections == 0 || sum.BranchUpgrades == 0 || sum.Rejoins == 0 {
		t.Errorf("a counting rule never fired: %+v", sum)
	}
}
