package driver

// funnel_test.go proves the planning funnel's one load-bearing claim —
// admissibility — from two directions. The property test checks the
// stage-1 bound pairwise against real trial profits on randomized
// corpora (a screened pair really is unprofitable; a gated trial never
// loses profit an ungated one would find). The differential test checks
// the end-to-end consequence: a session with the funnel on must commit
// the bit-identical merge set, fold set and module text as one with it
// off, across finders, duplicate folding, canonical views and family
// flattening.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/canon"
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
// against the ground truth: for candidate pairs drawn by both finders
// from randomized corpora, from SPEC2006 and MiBench programs on their
// own targets, and from mutated clones, the real (ungated) trial profit
// must never exceed SavingsUpperBound, the cache-profile Bound, the
// stage-3 refinement of the computed alignment, or — when the trial was
// gated and skipped — zero. It also pins the lazy-bound contract:
// BoundLazy never exceeds Bound, and settling the slack terms makes them
// agree exactly.
func TestSavingsUpperBoundAdmissible(t *testing.T) {
	for _, seed := range funnelSeeds(t) {
		for _, finder := range []search.Kind{search.KindExact, search.KindLSH} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, finder), func(t *testing.T) {
				m := corpus.Build(corpus.Config{Funcs: 200, Seed: seed})
				checkCandidatesAdmissible(t, m, finder, costmodel.X86_64, 50)
			})
		}
	}
	t.Run("thumb", func(t *testing.T) {
		m := corpus.Build(corpus.Config{Funcs: 200, Seed: funnelSeeds(t)[0]})
		checkCandidatesAdmissible(t, m, search.KindLSH, costmodel.Thumb, 50)
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
				checkCandidatesAdmissible(t, synth.Generate(p), search.KindExact, suite.target, 8)
			})
		}
	}
	// The linear solver breaks ties its own way and SalSSA-NoPC keeps the
	// selects coalescing would fold; the bound must hold for both.
	for _, cfg := range []Config{
		{Algorithm: SalSSA, Target: costmodel.X86_64},
		{Algorithm: SalSSA, Target: costmodel.Thumb, LinearAlign: true},
		{Algorithm: SalSSANoPC, Target: costmodel.X86_64},
	} {
		t.Run(fmt.Sprintf("clones/%v/%v/linear=%v", cfg.Algorithm, cfg.Target, cfg.LinearAlign), func(t *testing.T) {
			checkClonesAdmissible(t, funnelSeeds(t)[0], cfg)
		})
	}
}

// checkCandidatesAdmissible checks every pair the finder ranks for m.
func checkCandidatesAdmissible(t *testing.T, m *ir.Module, finder search.Kind, target costmodel.Target, minPairs int) {
	cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: target}
	ck := newAdmissibilityCheck(m, cfg)
	fnd := search.New(finder, m.Defined())
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
	m       *ir.Module
	cfg     Config
	opts    core.Options
	cache   *align.Cache
	preSize map[*ir.Function]int

	pairs, cut, plain, tight int
}

func newAdmissibilityCheck(m *ir.Module, cfg Config) *admissibilityCheck {
	ck := &admissibilityCheck{m: m, cfg: cfg, opts: cfg.CoreOptions(), cache: align.NewCache(), preSize: map[*ir.Function]int{}}
	for _, f := range m.Defined() {
		ck.preSize[f] = costmodel.FuncBytes(f, cfg.Target)
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
	m, cfg, cache := ck.m, ck.cfg, ck.cache
	ck.pairs++
	discard := func(tr *trial) {
		if tr.merged != nil && tr.scratch == nil {
			m.RemoveFunc(tr.merged)
		}
	}

	// Ground truth: the ungated trial's profit.
	ref := planTrialInPlace(ctx, m, f1, f2, cache, ck.preSize, ck.opts, cfg, noGate)
	profit := ref.profit
	failed := ref.err != nil
	discard(ref)

	// Lazy profiles, before any slack settles: never above the exact
	// bound, and marked inexact.
	p1 := costmodel.NewFuncProfile(f1, cfg.Target, cache.Seq(f1))
	p2 := costmodel.NewFuncProfile(f2, cfg.Target, cache.Seq(f2))
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
	if ub := costmodel.SavingsUpperBound(f1, f2, cfg.Target); profit > ub {
		t.Fatalf("%s/%s: profit %d exceeds SavingsUpperBound %d", f1.Name(), f2.Name(), profit, ub)
	}
	if profit > exact.UB {
		t.Fatalf("%s/%s: profit %d exceeds cached-profile bound %d", f1.Name(), f2.Name(), profit, exact.UB)
	}
	// Stage 3: the refined bound of the alignment the trial was built
	// from, tightened by the forced term exactly when neither function
	// can be simplified on its own.
	ares, err := align.AlignSeqsCtx(ctx, cache.Seq(f1), cache.Seq(f2), ck.opts.Align)
	if err != nil {
		t.Fatalf("%s/%s: align: %v", f1.Name(), f2.Name(), err)
	}
	refined := exact.Fixed + costmodel.MatchedPairBytes(ares.Pairs, cfg.Target)
	stage3 := refined
	if p1.Irreducible() && p2.Irreducible() {
		stage3 -= costmodel.ForcedCut(p1, p2, ares.Pairs, ck.opts, cfg.Target)
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
	// a skip (any stage) proves profit <= 0, and a materialized trial
	// carries the identical profit. Gate 0 mirrors the runner's
	// memoization criterion. Fresh lazy profiles exercise the stage-3
	// slack-confirmation path.
	q1 := costmodel.NewFuncProfile(f1, cfg.Target, cache.Seq(f1))
	q2 := costmodel.NewFuncProfile(f2, cfg.Target, cache.Seq(f2))
	g := trialGate{on: true, bd: costmodel.BoundLazy(q1, q2, cfg.Target), gate: 0, p1: q1, p2: q2}
	gated := planTrialInPlace(ctx, m, f1, f2, cache, ck.preSize, ck.opts, cfg, g)
	defer discard(gated)
	if gated.err != nil {
		t.Fatalf("%s/%s: gated trial errored: %v", f1.Name(), f2.Name(), gated.err)
	}
	if !gated.dpAborted && gated.skipped != (stage3 <= 0) {
		t.Fatalf("%s/%s: stage-3 bound %d but skipped=%v", f1.Name(), f2.Name(), stage3, gated.skipped)
	}
	if gated.skipped {
		if profit > 0 {
			t.Fatalf("%s/%s: funnel skipped a trial with profit %d (bound %d, dpAborted %v)",
				f1.Name(), f2.Name(), profit, gated.bound, gated.dpAborted)
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
		if !gated.dpAborted && gated.bound != want {
			t.Fatalf("%s/%s: stage-3 skip carries bound %d, want %d", f1.Name(), f2.Name(), gated.bound, want)
		}
		return
	}
	if gated.profit != profit {
		t.Fatalf("%s/%s: gated profit %d != ungated %d", f1.Name(), f2.Name(), gated.profit, profit)
	}
}

// TestFunnelDifferential is the end-to-end guarantee the perf work
// rides on: with the funnel on, a session must commit the identical
// merge records, fold records and final module text as with it off —
// for both finders, with and without duplicate folding, canonical-view
// indexing and family flattening. The corpus size follows scaleFuncs
// (400 under -short, 2k default, SCALE_CORPUS for the acceptance run).
func TestFunnelDifferential(t *testing.T) {
	n := scaleFuncs(t, 2000)
	for _, finder := range []search.Kind{search.KindExact, search.KindLSH} {
		for _, dupFold := range []bool{false, true} {
			for _, useCanon := range []bool{false, true} {
				for _, maxFamily := range []int{0, 3} {
					name := fmt.Sprintf("%v/dupfold=%v/canon=%v/family=%d", finder, dupFold, useCanon, maxFamily)
					t.Run(name, func(t *testing.T) {
						cfg := Config{
							Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64,
							Finder: finder, DupFold: dupFold, MaxFamily: maxFamily,
						}
						if useCanon {
							cfg.Canon = canon.Default()
						}
						off := cfg
						off.NoPlanFunnel = true
						m1, res1 := optimizeCorpus(t, n, cfg)
						m2, res2 := optimizeCorpus(t, n, off)
						if res2.PairsScreened != 0 || res2.DPAborted != 0 || res2.TrialsSkipped != 0 {
							t.Errorf("funnel-off run reports funnel counters: %+v", res2)
						}
						if len(res1.Merges) != len(res2.Merges) {
							t.Fatalf("merge count diverged: funnel %d, off %d", len(res1.Merges), len(res2.Merges))
						}
						for i := range res1.Merges {
							a, b := res1.Merges[i], res2.Merges[i]
							if a.F1 != b.F1 || a.F2 != b.F2 || a.Merged != b.Merged ||
								a.Profit != b.Profit || a.Committed != b.Committed {
								t.Fatalf("merge %d diverged:\nfunnel %+v\noff    %+v", i, a, b)
							}
						}
						if len(res1.Folds) != len(res2.Folds) {
							t.Fatalf("fold count diverged: funnel %d, off %d", len(res1.Folds), len(res2.Folds))
						}
						if res1.FinalBytes != res2.FinalBytes {
							t.Fatalf("final bytes diverged: funnel %d, off %d", res1.FinalBytes, res2.FinalBytes)
						}
						if s1, s2 := m1.String(), m2.String(); s1 != s2 {
							t.Fatalf("module text diverged (funnel %d bytes, off %d bytes)", len(s1), len(s2))
						}
						t.Logf("funcs=%d merges=%d screened=%d dp-aborted=%d skipped=%d built=%d",
							n, len(res1.Merges), res1.PairsScreened, res1.DPAborted,
							res1.TrialsSkipped, res1.TrialsBuilt)
					})
				}
			}
		}
	}
}
