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
	"testing"

	"repro/internal/align"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// funnelSeeds returns the corpus seeds the property test fuzzes over.
func funnelSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{7}
	}
	return []int64{3, 7, 11}
}

// TestSavingsUpperBoundAdmissible fuzzes the stage-1 profit bound
// against the ground truth: for candidate pairs drawn by both finders
// from randomized corpora, the real (ungated) trial profit must never
// exceed SavingsUpperBound, the cache-profile Bound, or — when the
// trial was gated and skipped — zero. It also pins the lazy-bound
// contract: BoundLazy never exceeds Bound, and settling the slack
// terms makes them agree exactly.
func TestSavingsUpperBoundAdmissible(t *testing.T) {
	ctx := context.Background()
	for _, seed := range funnelSeeds(t) {
		for _, finder := range []search.Kind{search.KindExact, search.KindLSH} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, finder), func(t *testing.T) {
				cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64}
				m := corpus.Build(corpus.Config{Funcs: 200, Seed: seed})
				preSize := map[*ir.Function]int{}
				for _, f := range m.Defined() {
					preSize[f] = costmodel.FuncBytes(f, cfg.Target)
				}
				cache := align.NewCache()
				fnd := search.New(finder, m.Defined())
				opts := cfg.CoreOptions()
				pairs := 0
				for _, f1 := range fnd.Order() {
					for _, f2 := range fnd.Candidates(f1, cfg.Threshold) {
						pairs++
						checkPairAdmissible(t, ctx, m, f1, f2, cache, preSize, opts, cfg)
						if t.Failed() {
							return
						}
					}
				}
				if pairs < 50 {
					t.Fatalf("only %d candidate pairs exercised, corpus too thin", pairs)
				}
			})
		}
	}
}

func checkPairAdmissible(t *testing.T, ctx context.Context, m *ir.Module, f1, f2 *ir.Function,
	cache *align.Cache, preSize map[*ir.Function]int, opts core.Options, cfg Config) {
	t.Helper()
	discard := func(tr *trial) {
		if tr.merged != nil && tr.scratch == nil {
			m.RemoveFunc(tr.merged)
		}
	}

	// Ground truth: the ungated trial's profit.
	ref := planTrialInPlace(ctx, m, f1, f2, cache, preSize, opts, cfg, noGate)
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

	// The gated trial must reach the same verdict the ungated one did:
	// a skip (any stage) proves profit <= 0, and a materialized trial
	// carries the identical profit. Gate 0 mirrors the runner's
	// memoization criterion. Fresh lazy profiles exercise the stage-3
	// slack-confirmation path.
	q1 := costmodel.NewFuncProfile(f1, cfg.Target, cache.Seq(f1))
	q2 := costmodel.NewFuncProfile(f2, cfg.Target, cache.Seq(f2))
	g := trialGate{on: true, bd: costmodel.BoundLazy(q1, q2, cfg.Target), gate: 0, p1: q1, p2: q2}
	gated := planTrialInPlace(ctx, m, f1, f2, cache, preSize, opts, cfg, g)
	defer discard(gated)
	if gated.err != nil {
		t.Fatalf("%s/%s: gated trial errored: %v", f1.Name(), f2.Name(), gated.err)
	}
	if gated.skipped {
		if profit > 0 {
			t.Fatalf("%s/%s: funnel skipped a trial with profit %d (bound %d, dpAborted %v)",
				f1.Name(), f2.Name(), profit, gated.bound, gated.dpAborted)
		}
		if !gated.dpAborted && gated.bound > 0 {
			// A stage-3 skip against gate 0 must carry a refined bound
			// <= 0 so the runner's memoization stays sound.
			t.Fatalf("%s/%s: stage-3 skip carries positive bound %d", f1.Name(), f2.Name(), gated.bound)
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
	n := scaleFuncs(t)
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
