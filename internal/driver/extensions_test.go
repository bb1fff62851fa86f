package driver

import (
	"testing"

	"repro/internal/align"
	"repro/internal/costmodel"
	"repro/internal/synth"
)

// TestMaxCellsBoundsARun: MaxCells is the one guard against an unrelated
// giant pair, so a run under a cap must hold every alignment matrix to
// it, still produce a module that verifies and behaves like the
// original, and never memoize a pair whose trial the cap refused
// (ErrTooLarge says nothing about profit). A pair too large to align can
// enter the memo only through the stage-1 screen, whose exact bound then
// rules out any profit.
func TestMaxCellsBoundsARun(t *testing.T) {
	profile := synth.Profile{
		Name: "cap", Seed: 5, Funcs: 60,
		MinSize: 4, AvgSize: 30, MaxSize: 120,
		CloneFrac: 0.5, FamilySize: 3, MutRate: 0.15,
	}
	for _, cells := range []int64{400, 4000} {
		cfg := Config{Algorithm: SalSSA, Threshold: 2, Target: costmodel.X86_64, MaxCells: cells}
		s := open(t, synth.Generate(profile), cfg)
		res := mustRun(t, s, nil)
		refused := res.Attempts - res.OutcomeHits - res.PairsScreened -
			res.TrialsBuilt - res.TrialsSkipped
		t.Logf("cap %d cells: %d merges, %d trials refused, peak matrix %d bytes",
			cells, len(res.Merges), refused, res.PeakMatrixBytes)
		if refused == 0 {
			t.Fatalf("cap %d: no trial hit the cap", cells)
		}
		if res.PeakMatrixBytes > 5*cells {
			t.Errorf("cap %d: peak matrix %d bytes exceeds %d", cells, res.PeakMatrixBytes, 5*cells)
		}
		it := align.NewInterner()
		tooLarge := 0
		for _, r := range s.recs.of {
			for _, to := range r.memo {
				f1, f2 := r.fn, to.fn
				sa, sb := align.NewSeq(f1, it), align.NewSeq(f2, it)
				n1, n2 := len(sa.Entries), len(sb.Entries)
				if int64(n1+1)*int64(n2+1) <= cells {
					continue
				}
				tooLarge++
				p1 := costmodel.NewFuncProfile(f1, cfg.Target, sa)
				p2 := costmodel.NewFuncProfile(f2, cfg.Target, sb)
				if bd := costmodel.Bound(p1, p2, cfg.Target); bd.UB > 0 {
					t.Errorf("cap %d: %s/%s (%dx%d entries, bound %d) memoized after the cap refused its trial",
						cells, f1.Name(), f2.Name(), n1, n2, bd.UB)
				}
			}
		}
		t.Logf("cap %d: %d memoized pairs past the cap", cells, tooLarge)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkipHotExcludesFunctions: hot functions are never merged away.
func TestSkipHotExcludesFunctions(t *testing.T) {
	profile := synth.Profile{
		Name: "hot", Seed: 88, Funcs: 20,
		MinSize: 10, AvgSize: 60, MaxSize: 200,
		CloneFrac: 0.8, FamilySize: 2, MutRate: 0.02, Loops: 0.5,
	}
	// First find out what merges without the hint.
	m0 := synth.Generate(profile)
	r0 := newOracle(t).runOnce(m0, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64}, nil)
	if len(r0.Merges) == 0 {
		t.Skip("module produced no merges")
	}
	hot := map[string]bool{r0.Merges[0].F1: true}
	m1 := synth.Generate(profile)
	r1 := newOracle(t).runOnce(m1, Config{Algorithm: SalSSA, Threshold: 1, Target: costmodel.X86_64, SkipHot: hot}, nil)
	for _, rec := range r1.Merges {
		if hot[rec.F1] || hot[rec.F2] {
			t.Errorf("hot function merged: %s + %s", rec.F1, rec.F2)
		}
	}
	// The hot function must keep its original body (not become a thunk).
	f := m1.FuncByName(r0.Merges[0].F1)
	if f == nil || f.IsDecl() {
		t.Fatal("hot function missing")
	}
}
