// Sharded planning: the two-stage summary/merge walk a daemon runs over
// large modules. Stage 1 partitions the candidate set into contiguous
// fingerprint-size bands ("fingerprint bands": clone relatives have
// near-equal instruction counts, so banding by size co-locates the
// pairs that actually merge) and plans each band in isolation, in
// parallel, against a private clone of the module. Stage 2 takes the
// candidates no band consumed and runs one cross-shard pass over them,
// catching merges (and duplicate folds) whose partners landed in
// different bands. The union of the per-band plans and the cross-shard
// plan is returned as one ordinary Plan: every entry carries structural
// hashes computed on clones that are structurally identical to the live
// module, so Session.Apply validates and commits it exactly like a plan
// from Plan.
//
// The trade against single-walk Plan: each band's greedy walk sees only
// its own candidates, so a function may merge with its best in-band
// partner even when a better partner sits in another band (stage 2 only
// sees the leftovers), and the ephemeral per-band sessions carry no
// family registry, so sharded plans never flatten — pairs that would
// flatten in-session nest instead. That is the usual quality/latency
// trade of summary-based mergers; callers who need the reference answer
// use Plan.
package driver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ir"
)

// PlanSharded is Plan over nshards fingerprint bands with a cross-shard
// second stage. nshards <= 1 degenerates to Plan. The session itself is
// not mutated beyond the usual pending-delta sync; the per-band walks
// run over private module clones.
func (s *Session) PlanSharded(ctx context.Context, nshards int) (*Plan, error) {
	p, _, err := s.PlanShardedReport(ctx, nshards)
	return p, err
}

// PlanShardedReport is PlanSharded with the aggregated accounting of
// every stage: per-band planning counters (attempts, cache/memo hits,
// funnel screens and aborts), timings and search statistics are summed
// across the band walks and the cross-shard pass into one Result, so a
// daemon can report sharded planning work with the same shape as an
// in-session PlanReport.
func (s *Session) PlanShardedReport(ctx context.Context, nshards int) (*Plan, *Result, error) {
	if nshards <= 1 {
		return s.PlanReport(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, errClosed
	}
	if s.cfg.Algorithm == FMSA {
		return nil, nil, fmt.Errorf("driver: PlanSharded requires a SalSSA variant")
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	s.sync()
	out := &Plan{
		Algorithm: s.cfg.Algorithm.String(),
		Threshold: s.cfg.Threshold,
		RunID:     newRunID(),
	}
	res := s.newResult()
	res.FinalBytes = res.BaselineBytes
	cands := s.candidateOrder()
	if len(cands) == 0 {
		res.TotalTime = time.Since(start)
		return out, res, nil
	}
	if nshards > len(cands) {
		nshards = len(cands)
	}
	// Contiguous bands over the size-sorted candidate list.
	sorted := append([]*ir.Function(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := sorted[i].NumInstrs(), sorted[j].NumInstrs()
		if si != sj {
			return si < sj
		}
		return sorted[i].Name() < sorted[j].Name()
	})
	shards := make([][]*ir.Function, 0, nshards)
	for i := 0; i < nshards; i++ {
		lo := i * len(sorted) / nshards
		hi := (i + 1) * len(sorted) / nshards
		if lo < hi {
			shards = append(shards, sorted[lo:hi])
		}
	}
	// Stage 1: per-band plans, each over a private clone restricted to
	// its band via SkipHot.
	plans := make([]*Plan, len(shards))
	reports := make([]*Result, len(shards)+1)
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard []*ir.Function) {
			defer wg.Done()
			keep := make(map[string]bool, len(shard))
			for _, f := range shard {
				keep[f.Name()] = true
			}
			plans[i], reports[i], errs[i] = s.planRestricted(ctx, keep)
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	consumed := map[string]bool{}
	for _, p := range plans {
		for _, pf := range p.Folds {
			consumed[pf.Dup] = true
		}
		for _, pm := range p.Merges {
			consumed[pm.F1] = true
			consumed[pm.F2] = true
		}
	}
	// Stage 2: one pass over the surviving candidates, cross-band.
	survivors := make(map[string]bool, len(cands))
	for _, f := range cands {
		if !consumed[f.Name()] {
			survivors[f.Name()] = true
		}
	}
	cross, crossRes, err := s.planRestricted(ctx, survivors)
	if err != nil {
		return nil, nil, err
	}
	reports[len(shards)] = crossRes
	for _, p := range append(plans, cross) {
		out.Folds = append(out.Folds, p.Folds...)
		out.Merges = append(out.Merges, p.Merges...)
	}
	for _, sr := range reports {
		mergeShardResult(res, sr)
	}
	res.TotalTime = time.Since(start)
	return out, res, nil
}

// mergeShardResult folds one stage's planning Result into the aggregate
// sharded report: counters, timings and search work sum (the stages run
// concurrently, so summed timings are CPU time, not wall time — the
// aggregate's TotalTime carries the wall clock), peaks take the max,
// and the per-stage fold/merge records concatenate in the same band
// order the sharded plan's entries do.
func mergeShardResult(res, sr *Result) {
	if sr == nil {
		return
	}
	res.Attempts += sr.Attempts
	res.Planned += sr.Planned
	res.CacheHits += sr.CacheHits
	res.OutcomeHits += sr.OutcomeHits
	res.PairsScreened += sr.PairsScreened
	res.DPAborted += sr.DPAborted
	res.TrialsBuilt += sr.TrialsBuilt
	res.TrialsSkipped += sr.TrialsSkipped
	res.ScreenTime += sr.ScreenTime
	res.AlignTime += sr.AlignTime
	res.CodegenTime += sr.CodegenTime
	res.CommitTime += sr.CommitTime
	res.SumMatrixBytes += sr.SumMatrixBytes
	if sr.PeakMatrixBytes > res.PeakMatrixBytes {
		res.PeakMatrixBytes = sr.PeakMatrixBytes
	}
	res.Search.Queries += sr.Search.Queries
	res.Search.Scanned += sr.Search.Scanned
	res.Search.Probed += sr.Search.Probed
	res.Search.QueryTime += sr.Search.QueryTime
	res.Search.Indexed += sr.Search.Indexed
	res.AlignCache.Hits += sr.AlignCache.Hits
	res.AlignCache.Misses += sr.AlignCache.Misses
	res.Folds = append(res.Folds, sr.Folds...)
	res.Merges = append(res.Merges, sr.Merges...)
}

// planRestricted plans one stage of the sharded walk: a fresh ephemeral
// session over a clone of the module, with candidacy restricted to keep
// (every other defined function goes on the skip-hot list, which also
// shields stage 2 from re-planning functions a band already consumed).
// The clone is structurally identical to the live module, so the plan's
// structural hashes validate against it. Ephemeral sessions track no
// families (their registry could never outlive the call) and report no
// progress.
func (s *Session) planRestricted(ctx context.Context, keep map[string]bool) (*Plan, *Result, error) {
	clone := ir.CloneModule(s.m)
	cfg := s.cfg
	cfg.MaxFamily = 0
	cfg.Progress = nil
	skip := make(map[string]bool, len(s.cfg.SkipHot))
	for name := range s.cfg.SkipHot {
		skip[name] = true
	}
	for _, f := range s.m.Defined() {
		if !keep[f.Name()] {
			skip[f.Name()] = true
		}
	}
	cfg.SkipHot = skip
	es, err := OpenSession(ctx, clone, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer es.Close()
	return es.PlanReport(ctx)
}
