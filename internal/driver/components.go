package driver

// Component-parallel commit walk (Config.CommitParallelism > 1).
//
// The greedy commit walk is inherently serial: each commit retires two
// functions, which reshapes every later candidate list. But candidate
// graphs are usually archipelagos — the finder only surfaces
// near-duplicates, so most functions interact with a small clique and
// never see the rest of the module. This file exploits that with an
// optimistic capture / validated replay scheme that is bit-identical to
// the serial walk at ANY parallelism:
//
//  1. Partition: union-find over the plain top-t candidate edges. A
//     commit can only ever pair a row with a member of its list, so
//     first-order interactions stay inside a component. (Widened
//     queries CAN cross components once tombs accumulate; the replay
//     validation below is what makes that harmless, so partition
//     quality affects only the transplant hit rate, never the result.)
//  2. Capture: one dry walk per multi-member component, in parallel.
//     Each walk runs the ordinary row loop against the shared pristine
//     finder with a private tombstone overlay and records, per row,
//     the filtered candidate list it saw and the chosen scratch-built
//     trial. Nothing shared is mutated — trials are pure, the
//     align cache and both finders are concurrency-safe, and the
//     outcome memo (mutex-guarded) never influences the row that
//     writes it, since only row f1 ever touches (f1, *) entries.
//  3. Replay: a serial pass over the FULL global walk order. For each
//     uncommitted row with a captured record, recompute the live
//     candidate list; if it equals the captured list, the captured
//     decision is provably what the serial walk would have made —
//     transplant it (adopt the scratch merged function, build thunks,
//     retire both originals). Any mismatch, or a row with no record,
//     is repaired by re-running the row serially in place. Induction
//     over replay turns gives bit-identical module text and merge set.
//
// Family flattening (MaxFamily >= 3) and CommitFilter consult global
// walk state that capture cannot see, so runs using either stay on the
// serial walk (see the guard in walk).

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ir"
)

// captureLog collects one component's captured rows, in that
// component's walk order.
type captureLog struct {
	rows []capturedRow
}

// capturedRow is one row of a capture walk: the tomb-filtered candidate
// list the row iterated, the winning trial (nil when no candidate was
// profitable; scratch retained for adoption at replay) and the row's
// share of the run accounting.
type capturedRow struct {
	f1    *ir.Function
	list  []*ir.Function
	best  *trial
	stats rowStats
}

// rowStats is the accounting delta a single captured row contributed,
// folded into the session Result only if the row survives validation —
// repaired rows recount themselves.
type rowStats struct {
	attempts, outcomeHits           int
	pairsScreened, dpAborted        int
	trialsBuilt, trialsSkipped      int
	alignTime, codegenTime          time.Duration
	screenTime                      time.Duration
	sumMatrixBytes, peakMatrixBytes int64
}

func rowDelta(before, after *Result) rowStats {
	return rowStats{
		attempts:       after.Attempts - before.Attempts,
		outcomeHits:    after.OutcomeHits - before.OutcomeHits,
		pairsScreened:  after.PairsScreened - before.PairsScreened,
		dpAborted:      after.DPAborted - before.DPAborted,
		trialsBuilt:    after.TrialsBuilt - before.TrialsBuilt,
		trialsSkipped:  after.TrialsSkipped - before.TrialsSkipped,
		alignTime:      after.AlignTime - before.AlignTime,
		codegenTime:    after.CodegenTime - before.CodegenTime,
		screenTime:     after.ScreenTime - before.ScreenTime,
		sumMatrixBytes: after.SumMatrixBytes - before.SumMatrixBytes,
		// Running max within the capture walk; folded via max, so the
		// global peak is exact.
		peakMatrixBytes: after.PeakMatrixBytes,
	}
}

func (rs rowStats) foldInto(res *Result) {
	res.Attempts += rs.attempts
	res.OutcomeHits += rs.outcomeHits
	res.PairsScreened += rs.pairsScreened
	res.DPAborted += rs.dpAborted
	res.TrialsBuilt += rs.trialsBuilt
	res.TrialsSkipped += rs.trialsSkipped
	res.AlignTime += rs.alignTime
	res.CodegenTime += rs.codegenTime
	res.ScreenTime += rs.screenTime
	res.SumMatrixBytes += rs.sumMatrixBytes
	if rs.peakMatrixBytes > res.PeakMatrixBytes {
		res.PeakMatrixBytes = rs.peakMatrixBytes
	}
}

// componentWalk is the commit-mode walk at CommitParallelism > 1. An
// error during capture aborts before anything commits; an error during
// replay keeps the committed prefix, matching walk's contract.
func (r *runner) componentWalk(ctx context.Context, candidates []*ir.Function) error {
	cfg := r.cfg
	res := r.res
	m := r.m
	if cfg.DupFold {
		r.foldStep(candidates)
	}
	order := r.finder.Order()

	// Partition: union-find over the top-t candidate edges, warming the
	// candidate cache with exactly the lists the replay will recheck.
	idx := make(map[*ir.Function]int, len(order))
	for i, f := range order {
		idx[f] = i
	}
	parent := make([]int, len(order))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, f := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, g := range r.lookup(f, cfg.Threshold) {
			if j, ok := idx[g]; ok {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	members := map[int][]*ir.Function{}
	for i, f := range order {
		root := find(i)
		members[root] = append(members[root], f)
	}
	var comps [][]*ir.Function
	for _, ms := range members {
		// Singletons have nothing to pair with inside their component;
		// the replay repairs them directly (their lists are usually
		// empty, so the repair is a cache hit and no trials).
		if len(ms) >= 2 {
			comps = append(comps, ms)
		}
	}
	// Deterministic scheduling order: by first member's walk position.
	// (Ordering affects only which worker captures what; the replay is
	// what fixes the result.)
	sort.Slice(comps, func(a, b int) bool { return idx[comps[a][0]] < idx[comps[b][0]] })
	res.Components = len(comps)

	// Capture: one private dry runner per component. Shared layers
	// (align cache, finder, outcome memo) are concurrency-safe; the
	// candidate cache is not, so capture runners skip it (cands nil).
	ccfg := cfg
	ccfg.DupFold = false
	ccfg.Parallelism = 1
	ccfg.CommitParallelism = 1
	workers := cfg.CommitParallelism
	if workers > len(comps) {
		workers = len(comps)
	}
	logs := make([]*captureLog, len(comps))
	errs := make([]error, len(comps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				logs[i] = &captureLog{}
				cr := &runner{
					m:        m,
					cfg:      ccfg,
					cache:    r.cache,
					finder:   r.finder,
					lens:     r.lens,
					sizes:    r.sizes,
					outcomes: r.outcomes,
					funnel:   r.funnel,
					runID:    r.runID,
					res:      &Result{},
					progress: func(Progress) {},
					tomb:     map[*ir.Function]bool{},
					claimed:  map[string]bool{},
					order:    comps[i],
					capture:  logs[i],
				}
				errs[i] = cr.walk(ctx, nil)
			}
		}()
	}
	for i := range comps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Replay: serial, over the full global order. The whole replay phase
	// counts as commit time: transplants are pure commit work, and the
	// repairs' replanning share is already visible in AlignTime and
	// CodegenTime for callers that want the overlap.
	replay0 := time.Now()
	defer func() { res.CommitTime += time.Since(replay0) }()
	byRow := make(map[*ir.Function]*capturedRow)
	for _, lg := range logs {
		for i := range lg.rows {
			row := &lg.rows[i]
			byRow[row.f1] = row
		}
	}
	opts := cfg.CoreOptions()
	consumed := map[*ir.Function]bool{}
	mergeIdx := 0
	for _, f1 := range order {
		if consumed[f1] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var best *trial
		if row := byRow[f1]; row != nil && r.rowValid(row, consumed) {
			best = row.best
			row.stats.foldInto(res)
			res.Transplanted++
		} else {
			if row != nil {
				res.Repaired++
			}
			var err error
			best, err = r.replayRow(ctx, f1, consumed, opts)
			if err != nil {
				return err
			}
		}
		if best == nil {
			continue
		}
		rec := MergeRecord{
			F1: f1.Name(), F2: best.f2.Name(),
			Profit: best.profit, Stats: best.stats, Committed: true,
		}
		if best.scratch != nil {
			adopt(m, best)
		}
		rec.Merged = best.merged.Name()
		recordPairFamily(r.families, best.merged, f1, best.f2)
		commit(f1, best.f2, best.merged)
		consumed[f1] = true
		consumed[best.f2] = true
		r.retire(f1)
		r.retire(best.f2)
		if r.markPending != nil {
			r.markPending(best.merged)
		}
		res.Merges = append(res.Merges, rec)
		mergeIdx++
		r.progress(Progress{
			RunID: r.runID, Stage: StageCommit, F1: rec.F1, F2: rec.F2,
			Merged: rec.Merged, Profit: rec.Profit, Committed: rec.Committed, Done: mergeIdx,
		})
	}
	return nil
}

// rowValid reports whether a captured row can be transplanted: the live
// candidate list at this replay turn must equal the list the capture
// walk saw, and the chosen partner must still be live. List equality is
// the whole proof — trials are pure functions of the two bodies, the
// outcome memo never influences the row that wrote it, and a body only
// changes when its function is retired, which removes it from every
// live list and fails the comparison.
func (r *runner) rowValid(row *capturedRow, consumed map[*ir.Function]bool) bool {
	if row.best != nil && consumed[row.best.f2] {
		return false
	}
	live := r.lookup(row.f1, r.cfg.Threshold)
	if len(live) != len(row.list) {
		return false
	}
	for i, g := range live {
		if row.list[i] != g {
			return false
		}
	}
	return true
}

// replayRow re-runs one row exactly as the serial commit walk would —
// live candidate list, outcome-memo skips, in-place trials — and
// returns the winning trial, if any. It is walk's inner loop restricted
// to the component-walk preconditions (no families, no planner).
func (r *runner) replayRow(ctx context.Context, f1 *ir.Function, consumed map[*ir.Function]bool, opts core.Options) (*trial, error) {
	res := r.res
	var best *trial
	discard := func(t *trial) {
		if t != nil && t.merged != nil && t.scratch == nil {
			r.m.RemoveFunc(t.merged)
		}
	}
	for _, f2 := range r.lookup(f1, r.cfg.Threshold) {
		if consumed[f2] {
			continue
		}
		if r.outcomes.has(f1, f2) {
			res.Attempts++
			res.OutcomeHits++
			continue
		}
		if err := ctx.Err(); err != nil {
			discard(best)
			return nil, err
		}
		// Same funnel as walk's lazy replans: screen against the row's
		// running best before any DP (see walk for the soundness rule).
		g := noGate
		if r.funnel != nil {
			gate := 0
			if best != nil {
				gate = best.profit
			}
			s0 := time.Now()
			bd, p1, p2 := r.funnel.screen(f1, f2)
			if bd.UB <= gate && !bd.Exact {
				// Provisional fail: settle slack and re-check (see walk).
				bd = costmodel.Bound(p1, p2, r.cfg.Target)
			}
			res.ScreenTime += time.Since(s0)
			if bd.UB <= gate {
				res.Attempts++
				res.PairsScreened++
				if bd.UB <= 0 {
					r.outcomes.put(f1, f2)
				}
				continue
			}
			g = trialGate{on: true, bd: bd, gate: gate, p1: p1, p2: p2}
		}
		t := planTrialInPlace(ctx, r.m, f1, f2, r.cache, r.sizes, opts, r.cfg, g)
		res.account(t)
		if t.err != nil {
			if err := ctx.Err(); err != nil {
				discard(best)
				return nil, err
			}
			continue
		}
		if t.skipped {
			if t.dpAborted {
				res.DPAborted++
			} else {
				res.TrialsSkipped++
			}
			if t.bound <= 0 {
				r.outcomes.put(f1, f2)
			}
			continue
		}
		res.TrialsBuilt++
		if t.profit > 0 && (best == nil || t.profit > best.profit) {
			discard(best)
			best = t
		} else {
			if t.profit <= 0 {
				r.outcomes.put(f1, f2)
			}
			discard(t)
		}
	}
	return best, nil
}
