package driver

import (
	"context"
	"time"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// runner executes one pipeline run — the paper's greedy loop (Fig. 16,
// §5.5): rank, try the top-t partners of a function, commit the best
// profitable one — against the session's two index layers: the finder,
// which lists a row's partners, and the records, which hold what the row
// reads of each function, its outcome memo row included. A row skips
// the pairs the memo holds and adds the ones it proves unprofitable; a
// commit's retire resets what it consumed, memo entries and all. One
// loop (walk) calls one row-step (row) and one commit-step (commitStep);
// it serves two modes from that one code path:
//
//   - commit mode (Optimize, RunContext, Apply): merged functions stay in
//     the module, originals become thunks, and the persistent indexes
//     are updated in place;
//   - dry mode (Plan, the runner has a plan): decisions are identical —
//     whatever a proposal or fold consumes is retired from the finder
//     exactly as a commit retires it — but the module is not changed:
//     merged-function names are claimed in an overlay instead of the
//     module, every winning trial is discarded like every loser, and the
//     chosen merges are recorded in the Plan. When the walk returns, the
//     finder gets back what it gave (giveBack), so the module and the
//     persistent indexes come back as found.
type runner struct {
	m      *ir.Module
	cfg    Config
	finder search.Finder
	// recs holds every candidate's record (records.go): its size, fold
	// hash, sequence, screening profile and outcome memo row, whose
	// pairs skip alignment and codegen entirely.
	recs *records
	// families, when non-nil, is the session's merge-family registry:
	// pairs involving a family head flatten (family.go) instead of
	// nesting, and every commit registers its members behind the new
	// head unless it nests (commitMerge).
	families *familySet
	runID    int64
	res      *Result
	progress func(Progress)
	// markPending tells the owning session which functions this run
	// mutated (commit mode only).
	markPending func(*ir.Function)

	// consumed holds the functions a commit, fold or dry proposal
	// retired.
	consumed map[*ir.Function]bool

	// ares is the pair trials' alignment, reused trial after trial and
	// cleared once each trial is built (planTrial), and cut the stage-3
	// cut's plan and table, reused pair after pair.
	ares align.Result
	cut  core.CutScratch

	// Dry mode: the plan being drawn up, the merged names it claims, and
	// the indexed functions it took out of the finder, in retire order.
	plan    *Plan
	claimed map[string]bool
	taken   []*ir.Function
}

// retire takes f out of play the moment a commit, fold or dry proposal
// consumes it: out of the finder, so later queries of the walk no longer
// list it, and out of the walk. A commit has rewritten f's body, so its
// record is reset, memo pairs and all, and f is scheduled for
// re-indexing at the next sync; a dry run changed nothing and only
// remembers an indexed f for giveBack.
func (r *runner) retire(f *ir.Function) {
	r.finder.Remove(f)
	switch {
	case r.plan == nil:
		r.recs.reset(f)
		r.markPending(f)
	case r.recs.of[f] != nil && !r.consumed[f]:
		r.taken = append(r.taken, f)
	}
	r.consumed[f] = true
}

// giveBack re-indexes, in one batch, every function a dry run retired.
// The finder's lists are the (distance, name) top-t of the indexed set
// whatever the insertion order, so it answers again exactly what it
// answered before the run.
func (r *runner) giveBack() {
	r.finder.AddBatch(r.taken)
}

// foldStep collapses families of structurally identical candidates
// before any alignment runs: every profitable duplicate is folded onto
// its family representative (fold) and leaves the candidate set, so
// exact clone families cost zero DP cells. The representative stays a
// candidate. Folds are commits: finding the families, building the
// forwarders and retiring the indexes all run on the commit clock, and
// FoldTime says how much of it was this step.
func (r *runner) foldStep(candidates []*ir.Function) {
	c0 := time.Now()
	defer func() {
		d := time.Since(c0)
		r.res.CommitTime += d
		r.res.FoldTime += d
	}()
	for _, fam := range r.foldFamilies(candidates) {
		rep := fam[0]
		for _, dup := range fam[1:] {
			if profit := r.foldProfit(dup); profit > 0 {
				r.fold(dup, rep, profit)
			}
		}
	}
}

// foldFamilies returns the duplicate families among candidates, in
// candidate (module definition) order, keeping folding deterministic.
// Only a candidate that can have a duplicate is hashed, and FoldHashed
// counts them: duplicates share a fingerprint, so a listed candidate is
// hashed when the finder holds another of its fingerprint
// (Finder.Shares), and a forwarding body — never listed, and equal only
// to another forwarding body — when another forwarding candidate has
// its size.
func (r *runner) foldFamilies(candidates []*ir.Function) [][]*ir.Function {
	var fwdSizes map[int]int
	for _, f := range candidates {
		if ir.Forwardee(f) != nil {
			if fwdSizes == nil {
				fwdSizes = map[int]int{}
			}
			fwdSizes[r.recs.of[f].size]++
		}
	}
	var shared []*ir.Function
	for _, f := range candidates {
		if fwdSizes == nil || ir.Forwardee(f) == nil {
			if r.finder.Shares(f) {
				shared = append(shared, f)
			}
		} else if fwdSizes[r.recs.of[f].size] > 1 {
			shared = append(shared, f)
		}
	}
	r.res.FoldHashed += len(shared)
	return search.FamiliesBy(shared, r.recs.hash)
}

// foldProfit is what folding dup saves: its size less the forwarder
// that replaces its body.
func (r *runner) foldProfit(dup *ir.Function) int {
	return r.recs.of[dup].size - costmodel.ThunkBytes(r.cfg.Target, len(dup.Params()))
}

// fold makes dup a forwarder to rep (commit mode) or a PlannedFold (dry
// mode), retires dup and records the fold. Apply folds through here too.
func (r *runner) fold(dup, rep *ir.Function, profit int) {
	if r.plan == nil {
		ir.BuildForwarder(dup, rep, dup.ParamValues())
	} else {
		r.plan.Folds = append(r.plan.Folds, PlannedFold{
			Dup: dup.Name(), Rep: rep.Name(), Profit: profit,
			DupHash: r.recs.hash(dup), RepHash: r.recs.hash(rep),
		})
	}
	r.retire(dup)
	r.res.Folds = append(r.res.Folds, FoldRecord{Dup: dup.Name(), Rep: rep.Name(), Profit: profit})
}

// walk is the greedy loop over the candidate set. candidates must be
// the eligible functions in module definition order; the loop itself
// attempts merges largest-first (finder order, paper §5.5): one
// row-step per live function, one commit-step per profitable row, all
// on the caller's goroutine. The loop is serial by nature: each commit
// retires two functions and so reshapes every later candidate list. It
// returns ctx.Err() when cancelled mid-run; everything committed before
// that stays.
func (r *runner) walk(ctx context.Context, candidates []*ir.Function) error {
	r.foldStep(candidates)
	for _, f1 := range r.finder.Order() {
		if r.consumed[f1] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		best, c, err := r.row(ctx, f1, r.finder.Candidates(f1, r.cfg.Threshold))
		r.res.add(c)
		if err != nil {
			return err
		}
		if best != nil {
			r.commitStep(best)
		}
	}
	return nil
}

// row is the row-step: f1 against its candidate list (the finder lists
// only functions still in play) — memoized partners skipped, then per
// pair the flatten check, the stage-1 screen, the trial and the
// decision. It returns the most profitable trial (nil when no partner is
// profitable; every loser is already discarded) and what the row cost.
// On cancellation the retained trial is discarded too.
func (r *runner) row(ctx context.Context, f1 *ir.Function, list []*ir.Function) (best *trial, c Counters, err error) {
	cfg := r.cfg
	rec1 := r.recs.of[f1]
	for _, f2 := range list {
		rec2 := r.recs.of[f2]
		// Cross-run memo: a pair whose bodies were already proven
		// unprofitable cannot become the best trial; skip its DP and
		// codegen entirely.
		if rec1.memoized(rec2) {
			c.Attempts++
			c.OutcomeHits++
			continue
		}
		// Deciding whether the pair flattens asks the reference index
		// for callers outside the family: a screen like any other.
		s0 := time.Now()
		fp := flattenFor(r.m, r.families, cfg.MaxFamily, f1, f2)
		c.ScreenTime += time.Since(s0)
		if err := ctx.Err(); err != nil {
			r.discard(best)
			return nil, c, err
		}
		// Stage 1: screen the pair against the admissible profit bound
		// before any DP. The gate is the best profit seen in this row so
		// far — a pair whose bound cannot clear it cannot become the row's
		// best trial, so skipping it never changes a decision. A bound
		// that cannot even clear zero is memoized like any finished
		// unprofitable trial. FMSA, the paper's baseline, plans every pair
		// in full, and a flatten, which re-merges the family's original
		// bodies plus the newcomer into one fresh k-ary candidate, is
		// planned ungated.
		g := noGate
		if fp == nil && cfg.Algorithm != FMSA {
			gate := 0
			if best != nil {
				gate = best.profit
			}
			s0, touched := time.Now(), r.recs.touchTime
			p1, p2 := r.recs.profile(rec1), r.recs.profile(rec2)
			c.TouchTime += r.recs.touchTime - touched
			bd := costmodel.BoundLazy(p1, p2, cfg.Target)
			if bd.UB <= gate && !bd.Exact {
				// The lazy bound omits unsettled slack, so a failed gate is
				// only provisional: settle the slack terms and re-check
				// before skipping.
				bd = costmodel.Bound(p1, p2, cfg.Target)
			}
			c.ScreenTime += time.Since(s0)
			if bd.UB <= gate {
				// A screened pair still counts as an attempt — the row
				// examined it — keeping Attempts the count of considered
				// pairs whether a run skips them via memo, screen or trial.
				c.Attempts++
				c.PairsScreened++
				if bd.UB <= 0 {
					rec1.remember(rec2)
				}
				continue
			}
			g = trialGate{on: true, bd: bd, gate: gate, p1: p1, p2: p2, cut: &r.cut}
		}
		var t trial
		t.plan(ctx, r.m, r.recs, fp, f1, f2, r.claimed, cfg, g, &r.ares)
		c.add(t.counters())
		switch {
		case t.err != nil:
			if err := ctx.Err(); err != nil {
				r.discard(best)
				return nil, c, err
			}
		case t.skipped:
			// Stage 3: the refined post-alignment bound fell short, so
			// the trial's profit provably cannot beat the gate it was
			// planned under; memoize only bounds that rule out any
			// profit at all.
			if t.bound <= 0 {
				rec1.remember(rec2)
			}
		case t.profit > 0 && (best == nil || t.profit > best.profit):
			r.discard(best)
			kept := t
			best = &kept
		default:
			if t.profit <= 0 {
				rec1.remember(rec2)
			}
			r.discard(&t)
		}
	}
	return best, c, nil
}

// discard drops a trial the run does not commit — a loser, every
// dry-run winner — from the module and releases its body
// (ir.Release). Nothing else references the body. A built body is
// codegen's to dispose of, so the time goes on the codegen clock (as
// build time). Nil-safe.
func (r *runner) discard(t *trial) {
	if t == nil {
		return
	}
	d0 := time.Now()
	r.res.DiscardedTrialAllocBytes += t.allocBytes
	if t.merged != nil {
		r.m.RemoveFunc(t.merged)
		ir.Release(t.merged)
	}
	d := time.Since(d0)
	r.res.CodegenTime += d
	r.res.BuildTime += d
}

// commitStep settles a row's winning trial — committed into the module
// or, in dry mode, proposed in the plan — and records it: the
// MergeRecord, the progress event, the commit clock. Apply commits its
// re-generated trials through here too.
func (r *runner) commitStep(t *trial) {
	c0 := time.Now()
	res, f1, f2, mp := r.res, t.f1, t.f2, t.mp
	rec := MergeRecord{F1: f1.Name(), F2: f2.Name(), Merged: t.merged.Name(), Profit: t.profit, Stats: t.stats}
	// A record says what was merged, the same on every run; what it took
	// is in the Counters.
	rec.Stats.BuildTime, rec.Stats.RepairTime = 0, 0
	if mp.flattens() {
		rec.Family = append([]string(nil), mp.names...)
	}
	if r.plan == nil {
		rec.Committed = true
		r.commitMerge(mp, t.merged)
		if mp.flattens() {
			res.Flattened++
		}
	} else {
		// Dry mode: the merge is a proposal, not an applied change; it
		// retires what the commit would and leaves the module as it was.
		for i := range mp.names {
			r.retire(mp.member(r.m, i))
		}
		for _, h := range mp.heads {
			r.retire(h)
		}
		r.claimed[rec.Merged] = true
		r.plan.Merges = append(r.plan.Merges, PlannedMerge{
			F1: rec.F1, F2: rec.F2, Merged: rec.Merged, Family: rec.Family, Profit: t.profit,
			Hash1: r.recs.hash(f1), Hash2: r.recs.hash(f2),
		})
		// The discard is on the codegen clock, not the commit clock.
		d0 := time.Now()
		r.discard(t)
		c0 = c0.Add(time.Since(d0))
	}
	res.Merges = append(res.Merges, rec)
	r.progress(Progress{
		RunID: r.runID, Stage: StageCommit, F1: rec.F1, F2: rec.F2,
		Merged: rec.Merged, Profit: rec.Profit, Committed: rec.Committed, Done: len(res.Merges),
	})
	res.CommitTime += time.Since(c0)
}

// commitMerge applies a winning trial, whose merged function heads the
// members mp describes — a pairwise merge is a family of two newcomers
// (pairPlan). Every member's live definition becomes a thunk into the
// head and is retired, the consumed heads leave the module, and under
// family tracking the members' originals are registered behind the
// head: each newcomer's body frozen (ir.Freeze) just before its thunk
// releases it, each existing member's record carried over as it was. A
// newcomer that already heads a family nests instead and registers
// nothing: a nested chain beyond MaxFamily stays a chain.
func (r *runner) commitMerge(mp *memberPlan, merged *ir.Function) {
	track := r.families != nil
	for i, src := range mp.srcs {
		track = track && !(mp.stored[i] == nil && r.families.isHead(src))
	}
	var members []familyMember
	for i, nm := range mp.names {
		live := mp.member(r.m, i)
		if track {
			rec := mp.stored[i]
			if rec == nil {
				rec = ir.Freeze(live)
			}
			members = append(members, familyMember{name: nm, rec: rec})
		}
		core.BuildThunk(live, merged, i, mp.pplan.Maps[i], mp.pplan)
		r.retire(live)
	}
	for _, h := range mp.heads {
		// Detached first: retire reports h to the reference index, which
		// re-reads whatever is still in the module. Once every index has
		// let go of it, the head's body is dead: its members thunk into
		// the new head, and no stored original calls it (flattenFor
		// checked).
		r.m.RemoveFunc(h)
		r.retire(h)
		r.families.drop(h)
		ir.Release(h)
	}
	if track {
		r.families.record(merged, members)
	}
	r.markPending(merged)
}
