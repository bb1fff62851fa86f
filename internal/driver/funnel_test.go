package driver

// funnel_test.go proves the planning funnel's one load-bearing claim —
// admissibility: the property test checks the stage-1 bound pairwise
// against real trial profits on randomized corpora (a screened pair
// really is unprofitable; a gated trial never loses profit an ungated
// one would find). The end-to-end consequence — the funnel changes what
// is built, never what is committed — is pinned by the recorded digests
// of the grid and the oracle's cells (oracle_test.go): a run with the
// funnel switched off reproduced the grid's before the switch was
// removed.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/synth"
)

// funnelSeeds returns the corpus seeds the property test fuzzes over.
func funnelSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{7}
	}
	return []int64{3, 7, 11}
}

// TestSavingsUpperBoundAdmissible fuzzes the funnel's profit bounds
// against the ground truth: for candidate pairs drawn by the index
// from randomized corpora, from SPEC2006 and MiBench programs on their
// own targets, and from mutated clones, the real (ungated) trial profit
// must never exceed the profile Bound, the stage-3 refinement of the
// computed alignment, or — when the trial was gated and skipped — zero.
// It also pins the lazy-bound contract: BoundLazy never exceeds Bound,
// and settling the slack terms makes them agree exactly.
func TestSavingsUpperBoundAdmissible(t *testing.T) {
	for _, seed := range funnelSeeds(t) {
		// The suffix names the finder kind the Index answers to.
		t.Run(fmt.Sprintf("seed=%d/lsh", seed), func(t *testing.T) {
			m := corpus.Build(corpus.Config{Funcs: 200, Seed: seed})
			checkCandidatesAdmissible(t, m, costmodel.X86_64, 50)
		})
	}
	t.Run("thumb", func(t *testing.T) {
		m := corpus.Build(corpus.Config{Funcs: 200, Seed: funnelSeeds(t)[0]})
		checkCandidatesAdmissible(t, m, costmodel.Thumb, 50)
	})
	div := 4
	if testing.Short() {
		div = 12
	}
	for _, suite := range []struct {
		profiles []synth.Profile
		target   costmodel.Target
	}{
		{synth.SPEC2006(), costmodel.X86_64},
		{synth.MiBench(), costmodel.Thumb},
	} {
		for _, name := range []string{"429.mcf", "447.dealII", "471.omnetpp", "susan", "typeset"} {
			p, ok := synth.ByName(suite.profiles, name)
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("suite/%s/%v", name, suite.target), func(t *testing.T) {
				p.Funcs = max(12, p.Funcs/div)
				checkCandidatesAdmissible(t, synth.Generate(p), suite.target, 8)
			})
		}
	}
	// Thumb prices bytes its own way and SalSSA-NoPC keeps the selects
	// coalescing would fold; the bound must hold for both. The
	// "linear=false" suffix is kept from when the linear-space solver was
	// an axis, so the x86-64 cells keep their names.
	for _, cfg := range []Config{
		{Algorithm: SalSSA, Target: costmodel.X86_64},
		{Algorithm: SalSSA, Target: costmodel.Thumb},
		{Algorithm: SalSSANoPC, Target: costmodel.X86_64},
	} {
		t.Run(fmt.Sprintf("clones/%v/%v/linear=false", cfg.Algorithm, cfg.Target), func(t *testing.T) {
			checkClonesAdmissible(t, funnelSeeds(t)[0], cfg)
		})
	}
}

// checkCandidatesAdmissible checks every pair the finder ranks for m.
func checkCandidatesAdmissible(t *testing.T, m *ir.Module, target costmodel.Target, minPairs int) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: target}
	ck := newAdmissibilityCheck(m, cfg)
	fnd := search.New(search.KindLSH, m.Defined())
	for _, f1 := range fnd.Order() {
		for _, f2 := range fnd.Candidates(f1, cfg.Threshold) {
			ck.pair(t, f1, f2)
			if t.Failed() {
				return
			}
		}
	}
	ck.report(t, minPairs)
}

// checkClonesAdmissible pairs functions of a seeded corpus with mutated
// clones of themselves, half of them with their block layout shuffled as
// well: the same code in another order, which leaves branches and labels
// unmatched next to matched code — the shapes the stage-3 dispatch and
// label-selection rules have to get right and that clone families
// generated in one layout never produce.
func checkClonesAdmissible(t *testing.T, seed int64, cfg Config) {
	m := corpus.Build(corpus.Config{Funcs: 120, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	b := synth.NewBuilder(m, rng, synth.SuiteProfile(0, seed))
	type pair struct{ f1, f2 *ir.Function }
	var pairs []pair
	for i, f := range m.Defined() {
		if f.NumInstrs() < 12 {
			continue
		}
		c := b.Clone(f, fmt.Sprintf("%s.mut%d", f.Name(), i), 0.05)
		if i%2 == 0 && len(c.Blocks) > 2 {
			order := append([]*ir.Block(nil), c.Blocks...)
			rng.Shuffle(len(order)-1, func(x, y int) { order[x+1], order[y+1] = order[y+1], order[x+1] })
			c.SetBlockOrder(order)
		}
		if err := ir.VerifyFunction(c); err != nil {
			t.Fatalf("mutated clone does not verify: %v", err)
		}
		if i%3 == 0 {
			pairs = append(pairs, pair{c, f})
		} else {
			pairs = append(pairs, pair{f, c})
		}
	}
	ck := newAdmissibilityCheck(m, cfg)
	for _, p := range pairs {
		ck.pair(t, p.f1, p.f2)
		if t.Failed() {
			return
		}
	}
	ck.report(t, 50)
}

// admissibilityCheck holds what checking one module's pairs shares, and
// counts how often each stage-3 path was exercised.
type admissibilityCheck struct {
	m    *ir.Module
	cfg  Config
	opts core.Options
	recs *records

	pairs, cut, plain, tight int
}

func newAdmissibilityCheck(m *ir.Module, cfg Config) *admissibilityCheck {
	ck := &admissibilityCheck{m: m, cfg: cfg, opts: cfg.CoreOptions(), recs: newRecords(cfg.Target, 0)}
	for _, f := range m.Defined() {
		ck.recs.put(f, costmodel.FuncBytes(f, cfg.Target))
	}
	return ck
}

func (ck *admissibilityCheck) report(t *testing.T, minPairs int) {
	t.Helper()
	if ck.pairs < minPairs {
		t.Fatalf("only %d candidate pairs exercised, corpus too thin", ck.pairs)
	}
	t.Logf("%d pairs: forced cut applied to %d (profit met the bound exactly on %d), old bound kept for %d",
		ck.pairs, ck.cut, ck.tight, ck.plain)
}

func (ck *admissibilityCheck) pair(t *testing.T, f1, f2 *ir.Function) {
	t.Helper()
	ctx := context.Background()
	m, cfg, recs := ck.m, ck.cfg, ck.recs
	r1, r2 := recs.of[f1], recs.of[f2]
	ck.pairs++
	discard := func(tr *trial) {
		if tr.merged != nil {
			m.RemoveFunc(tr.merged)
		}
	}

	// Ground truth: the ungated trial's profit.
	ref := planTrial(ctx, m, recs, nil, f1, f2, nil, cfg, noGate, new(align.Result))
	profit := ref.profit
	failed := ref.err != nil
	discard(ref)

	// Lazy profiles, before any slack settles: never above the exact
	// bound, and marked inexact.
	p1 := costmodel.NewFuncProfile(f1, cfg.Target, recs.seqOf(r1))
	p2 := costmodel.NewFuncProfile(f2, cfg.Target, recs.seqOf(r2))
	lazy := costmodel.BoundLazy(p1, p2, cfg.Target)
	if lazy.Exact {
		t.Fatalf("%s/%s: fresh profiles report an exact bound", f1.Name(), f2.Name())
	}
	exact := costmodel.Bound(p1, p2, cfg.Target)
	if !exact.Exact {
		t.Fatalf("%s/%s: Bound returned an inexact bound", f1.Name(), f2.Name())
	}
	if lazy.UB > exact.UB || lazy.Fixed > exact.Fixed {
		t.Fatalf("%s/%s: lazy bound (%d,%d) exceeds exact (%d,%d)",
			f1.Name(), f2.Name(), lazy.UB, lazy.Fixed, exact.UB, exact.Fixed)
	}
	if again := costmodel.BoundLazy(p1, p2, cfg.Target); again != exact {
		t.Fatalf("%s/%s: settled lazy bound %+v != exact %+v", f1.Name(), f2.Name(), again, exact)
	}

	if failed {
		return
	}

	// Admissibility proper: profit never exceeds any form of the bound.
	if profit > exact.UB {
		t.Fatalf("%s/%s: profit %d exceeds the profile bound %d", f1.Name(), f2.Name(), profit, exact.UB)
	}
	// Stage 3: the refined bound of the alignment the trial was built
	// from, tightened by the forced term exactly when neither function
	// can be simplified on its own.
	ares, err := align.AlignSeqsCtx(ctx, recs.seqOf(r1), recs.seqOf(r2), ck.opts.Align)
	if err != nil {
		t.Fatalf("%s/%s: align: %v", f1.Name(), f2.Name(), err)
	}
	refined := exact.Fixed + costmodel.MatchedPairBytes(ares.Pairs, cfg.Target)
	stage3 := refined
	if p1.Irreducible() && p2.Irreducible() {
		stage3 -= costmodel.ForcedCut(p1, p2, ares.Pairs, cfg.Target, nil)
		ck.cut++
	} else {
		ck.plain++
	}
	if profit == stage3 && stage3 != refined {
		ck.tight++
	}
	if profit > stage3 {
		t.Fatalf("%s/%s: profit %d exceeds the stage-3 bound %d (%d before the forced cut)\n%s\n%s",
			f1.Name(), f2.Name(), profit, stage3, refined, f1, f2)
	}

	// The gated trial must reach the same verdict the ungated one did:
	// a skip proves profit <= 0, and a materialized trial
	// carries the identical profit. Gate 0 mirrors the runner's
	// memoization criterion. Fresh lazy profiles exercise the stage-3
	// slack-confirmation path.
	q1 := costmodel.NewFuncProfile(f1, cfg.Target, recs.seqOf(r1))
	q2 := costmodel.NewFuncProfile(f2, cfg.Target, recs.seqOf(r2))
	g := trialGate{on: true, bd: costmodel.BoundLazy(q1, q2, cfg.Target), gate: 0, p1: q1, p2: q2}
	gated := planTrial(ctx, m, recs, nil, f1, f2, nil, cfg, g, new(align.Result))
	defer discard(gated)
	if gated.err != nil {
		t.Fatalf("%s/%s: gated trial errored: %v", f1.Name(), f2.Name(), gated.err)
	}
	if gated.skipped != (stage3 <= 0) {
		t.Fatalf("%s/%s: stage-3 bound %d but skipped=%v", f1.Name(), f2.Name(), stage3, gated.skipped)
	}
	if gated.skipped {
		if profit > 0 {
			t.Fatalf("%s/%s: funnel skipped a trial with profit %d (bound %d)",
				f1.Name(), f2.Name(), profit, gated.bound)
		}
		// A stage-3 skip carries the bound that proved it: the old
		// refinement when that already fails the gate (the forced term is
		// never evaluated then) or for a pair the term does not cover,
		// the cut bound otherwise. Against gate 0 either is <= 0, which
		// keeps the runner's memoization sound.
		want := stage3
		if refined <= 0 {
			want = refined
		}
		if gated.bound != want {
			t.Fatalf("%s/%s: stage-3 skip carries bound %d, want %d", f1.Name(), f2.Name(), gated.bound, want)
		}
		return
	}
	if gated.profit != profit {
		t.Fatalf("%s/%s: gated profit %d != ungated %d", f1.Name(), f2.Name(), gated.profit, profit)
	}
}
