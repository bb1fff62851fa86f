package driver

// A verbatim-behavior copy of the pre-Session one-shot pipeline (the
// serial commit walk RunContext used to inline), retained as the
// reference implementation for the differential session tests: the
// committed merge set of Session.Optimize — first run or incremental,
// at any parallelism — must stay bit-identical to what this function
// produces. The copy is serial-only (the historical parallel path was
// already proven equivalent to this serial walk by the PR 1 tests).

import (
	"context"
	"time"

	"repro/internal/align"
	"repro/internal/costmodel"
	"repro/internal/fmsa"
	"repro/internal/ir"
	"repro/internal/search"
)

// runOneShotReference is the pre-PR serial pipeline.
func runOneShotReference(ctx context.Context, m *ir.Module, cfg Config) (*Result, error) {
	start := time.Now()
	res := &Result{Algorithm: cfg.Algorithm, Threshold: cfg.Threshold}
	res.BaselineBytes = costmodel.ModuleBytes(m, cfg.Target)

	if err := ctx.Err(); err != nil {
		res.FinalBytes = res.BaselineBytes
		res.TotalTime = time.Since(start)
		return res, err
	}

	preSize := map[*ir.Function]int{}
	for _, f := range m.Defined() {
		preSize[f] = costmodel.FuncBytes(f, cfg.Target)
	}

	if cfg.Algorithm == FMSA {
		fmsa.PrepareModule(m)
	}

	candidates := m.Defined()
	if cfg.MinInstrs > 0 || len(cfg.SkipHot) > 0 {
		var kept []*ir.Function
		for _, f := range candidates {
			if f.NumInstrs() < cfg.MinInstrs || cfg.SkipHot[f.Name()] {
				continue
			}
			kept = append(kept, f)
		}
		candidates = kept
	}
	if cfg.DupFold {
		candidates = referenceFoldDuplicates(candidates, preSize, cfg, res)
	}
	cache := align.NewCache()
	finder := search.New(cfg.Finder, candidates)
	opts := cfg.CoreOptions()
	order := finder.Order()

	consumed := map[*ir.Function]bool{}
	mergeIdx := 0
	var runErr error
	discard := func(t *trial) {
		if t != nil && t.merged != nil && t.scratch == nil {
			m.RemoveFunc(t.merged)
		}
	}
commitLoop:
	for _, f1 := range order {
		if consumed[f1] {
			continue
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		var best *trial
		for _, f2 := range finder.Candidates(f1, cfg.Threshold) {
			if consumed[f2] {
				continue
			}
			if err := ctx.Err(); err != nil {
				runErr = err
				discard(best)
				break commitLoop
			}
			t := planTrialInPlace(ctx, m, f1, f2, cache, preSize, opts, cfg, noGate)
			res.Attempts++
			res.AlignTime += t.alignTime
			res.CodegenTime += t.codegenTime
			if t.matrixBytes > 0 {
				res.SumMatrixBytes += t.matrixBytes
				if t.matrixBytes > res.PeakMatrixBytes {
					res.PeakMatrixBytes = t.matrixBytes
				}
			}
			if t.err != nil {
				if err := ctx.Err(); err != nil {
					runErr = err
					discard(best)
					break commitLoop
				}
				continue
			}
			if t.profit > 0 && (best == nil || t.profit > best.profit) {
				discard(best)
				best = t
			} else {
				discard(t)
			}
		}
		if best == nil {
			continue
		}
		rec := MergeRecord{
			F1: f1.Name(), F2: best.f2.Name(),
			Profit: best.profit, Stats: best.stats, Committed: true,
		}
		if cfg.CommitFilter != nil && !cfg.CommitFilter(mergeIdx) {
			rec.Committed = false
			rec.Merged = best.merged.Name()
			discard(best)
		} else {
			rec.Merged = best.merged.Name()
			commit(f1, best.f2, best.merged)
			consumed[f1] = true
			consumed[best.f2] = true
			finder.Remove(f1)
			finder.Remove(best.f2)
			cache.Invalidate(f1)
			cache.Invalidate(best.f2)
		}
		res.Merges = append(res.Merges, rec)
		mergeIdx++
	}

	if cfg.Algorithm == FMSA {
		fmsa.CleanupModule(m)
	}
	res.Search = finder.Stats()
	res.AlignCache = cache.Stats()
	res.FinalBytes = costmodel.ModuleBytes(m, cfg.Target)
	res.TotalTime = time.Since(start)
	return res, runErr
}

// referenceFoldDuplicates is the pre-PR duplicate-folding pre-pass.
func referenceFoldDuplicates(candidates []*ir.Function, preSize map[*ir.Function]int, cfg Config, res *Result) []*ir.Function {
	folded := map[*ir.Function]bool{}
	for _, fam := range search.Families(candidates) {
		rep := fam[0]
		for _, dup := range fam[1:] {
			profit := preSize[dup] - costmodel.ForwarderBytes(cfg.Target, len(dup.Params()))
			if profit <= 0 {
				continue
			}
			search.BuildForwarder(dup, rep)
			folded[dup] = true
			res.Folds = append(res.Folds, FoldRecord{Dup: dup.Name(), Rep: rep.Name(), Profit: profit})
		}
	}
	if len(folded) == 0 {
		return candidates
	}
	kept := make([]*ir.Function, 0, len(candidates)-len(folded))
	for _, f := range candidates {
		if !folded[f] {
			kept = append(kept, f)
		}
	}
	return kept
}
