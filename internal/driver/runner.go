package driver

import (
	"context"
	"time"

	"repro/internal/align"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/search"
)

// runner executes one pipeline run — the paper's greedy loop (Fig. 16,
// §5.5): rank, try the top-t partners of a function, commit the best
// profitable one — against a set of index layers. One loop (walk) calls
// one row-step (row) and one commit-step (commitStep); it serves two
// modes from that one code path:
//
//   - commit mode (Optimize, RunContext, Apply): merged functions stay in
//     the module, originals become thunks, and the persistent indexes
//     are updated in place;
//   - dry mode (Plan): decisions are identical, but consumed functions
//     are tombstoned in an overlay instead of being removed from the
//     finder, merged-function names are claimed in an overlay instead of
//     the module, and the chosen merges are recorded in a Plan. Both
//     modes build every trial in place, the same way; a dry run
//     discards its winners too, so the module comes back as found and
//     the persistent indexes untouched.
type runner struct {
	m      *ir.Module
	cfg    Config
	cache  *align.Cache
	finder search.Finder
	// hashes is the session's fold-hash memo (nil for FMSA's throwaway
	// runs, which hash every time).
	hashes hashMemo
	sizes  map[*ir.Function]int
	// outcomes, when non-nil, memoizes unprofitable pairs across runs;
	// pairs found there skip alignment and codegen entirely.
	outcomes *outcomeCache
	// funnel, when non-nil, is the session's planning funnel
	// (funnel.go): candidate pairs are screened against an admissible
	// profit bound before any DP, the bound's score floor aborts
	// hopeless alignments mid-DP, and a trial only materializes (its
	// codegen) once its computed alignment still clears the gate.
	// Every pruned pair provably could not have changed a decision, so
	// a gated run commits the merge set an ungated one would. Nil for
	// FMSA, Apply replays and flatten trials, which plan every pair in
	// full.
	funnel *funnel
	// families, when non-nil, is the session's merge-family registry:
	// pairs involving a family head flatten (family.go) instead of
	// nesting, and every pairwise commit records a new two-member
	// family.
	families   *familySet
	commitMode bool
	runID      int64
	res        *Result
	progress   func(Progress)
	// markPending, when non-nil, tells the owning session which
	// functions this run mutated (commit mode only).
	markPending func(*ir.Function)

	// Walk state: the functions a commit (or dry proposal) took out of
	// play, and how many profitable merges the commit-step has settled
	// (CommitFilter's argument).
	consumed map[*ir.Function]bool
	mergeIdx int

	// ares is the pair trials' alignment, reused trial after trial and
	// cleared once each trial is built (pairTrial).
	ares align.Result

	// Dry-mode overlays.
	plan    *Plan
	tomb    map[*ir.Function]bool
	claimed map[string]bool
}

// candidates is the finder's top-t through the dry-mode tombstone
// overlay: the exact top-t among live candidates. The finder's order is
// total and prefix-consistent, so the query widens by what it needs —
// t, 2t, 4t, … up to t plus every tombstone — until t live entries
// survive or the raw list comes back short; a commit run (or a dry run
// with nothing tombstoned) asks the finder once.
func (r *runner) candidates(f *ir.Function, t int) []*ir.Function {
	dead := len(r.tomb)
	if r.commitMode || dead == 0 {
		return r.finder.Candidates(f, t)
	}
	for k := t; ; k = min(2*k, t+dead) {
		raw := r.finder.Candidates(f, k)
		out := make([]*ir.Function, 0, t)
		for _, g := range raw {
			if !r.tomb[g] {
				if out = append(out, g); len(out) == t {
					break
				}
			}
		}
		if len(out) == t || len(raw) < k {
			return out
		}
	}
}

// retire takes f out of play the moment a commit or fold rewrites its
// body: out of the finder, so later queries of the walk no longer list
// it; its cached linearization invalidated (it would pin the dead
// instructions); its fold hash and screening profile dropped; and —
// when an owning session exists — scheduled for re-indexing at the next
// sync. Every index layer is nil-safe.
func (r *runner) retire(f *ir.Function) {
	r.finder.Remove(f)
	r.cache.Invalidate(f)
	delete(r.hashes, f)
	r.funnel.invalidate(f)
	if r.markPending != nil {
		r.markPending(f)
	}
}

// foldStep collapses families of structurally identical candidates
// before any alignment runs (Config.DupFold): every profitable
// duplicate becomes a forwarder to its family representative (commit
// mode) or a tombstoned PlannedFold (dry mode) and leaves the candidate
// set, so exact clone families cost zero DP cells. The representative
// stays a candidate. Families follow candidate (module definition)
// order, keeping folding deterministic. Folds are commits: finding the
// families, building the forwarders and retiring the indexes all run on
// the commit clock.
func (r *runner) foldStep(candidates []*ir.Function) {
	c0 := time.Now()
	defer func() { r.res.CommitTime += time.Since(c0) }()
	for _, fam := range search.FamiliesBy(candidates, r.hashes.of) {
		rep := fam[0]
		for _, dup := range fam[1:] {
			profit := r.sizes[dup] - costmodel.ThunkBytes(r.cfg.Target, len(dup.Params()))
			if profit <= 0 {
				continue
			}
			if r.commitMode {
				search.BuildForwarder(dup, rep)
				r.retire(dup)
			} else {
				r.tomb[dup] = true
				r.plan.Folds = append(r.plan.Folds, PlannedFold{
					Dup: dup.Name(), Rep: rep.Name(), Profit: profit,
					DupHash: r.hashes.of(dup), RepHash: r.hashes.of(rep),
				})
			}
			r.res.Folds = append(r.res.Folds, FoldRecord{Dup: dup.Name(), Rep: rep.Name(), Profit: profit})
		}
	}
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
	if r.cfg.DupFold {
		r.foldStep(candidates)
	}
	for _, f1 := range r.finder.Order() {
		if r.consumed[f1] || r.tomb[f1] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		best, c, err := r.row(ctx, f1, r.candidates(f1, r.cfg.Threshold))
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

// row is the row-step: f1 against its live candidate list — consumed
// and memoized partners skipped, then per pair the flatten check, the
// stage-1 screen, the trial and the decision. It returns the most
// profitable trial (nil when no partner is profitable; every loser is
// already discarded) and what the row cost. On cancellation the
// retained trial is discarded too.
func (r *runner) row(ctx context.Context, f1 *ir.Function, list []*ir.Function) (best *trial, c Counters, err error) {
	cfg := r.cfg
	for _, f2 := range list {
		if r.consumed[f2] {
			continue
		}
		// Cross-run memo: a pair whose bodies were already proven
		// unprofitable cannot become the best trial; skip its DP and
		// codegen entirely.
		if r.outcomes.has(f1, f2) {
			c.Attempts++
			c.OutcomeHits++
			continue
		}
		// Deciding whether the pair flattens asks the reference index
		// for callers outside the family: a screen like any other.
		s0 := time.Now()
		fp := flattenFor(r.m, r.families, cfg.MaxFamily, f1, f2, best)
		c.ScreenTime += time.Since(s0)
		if err := ctx.Err(); err != nil {
			r.discard(best)
			return nil, c, err
		}
		var t *trial
		kind := pairOutcome
		if fp != nil {
			kind = flattenOutcome
			// Family flattening replaces the pairwise trial: merge the
			// family's original bodies plus the newcomer into one fresh
			// k-ary candidate.
			t = r.flattenTrial(ctx, fp, f1, f2)
		} else {
			// Stage 1: screen the pair against the admissible profit
			// bound before any DP. The gate is the best profit seen in
			// this row so far — a pair whose bound cannot clear it
			// cannot become the row's best trial, so skipping it never
			// changes a decision. A bound that cannot even clear zero is
			// memoized like any finished unprofitable trial.
			g := noGate
			if r.funnel != nil {
				gate := 0
				if best != nil {
					gate = best.profit
				}
				s0 := time.Now()
				bd, p1, p2 := r.funnel.screen(f1, f2)
				if bd.UB <= gate && !bd.Exact {
					// The lazy bound omits unsettled slack, so a failed
					// gate is only provisional: settle the slack terms
					// and re-check before skipping.
					bd = costmodel.Bound(p1, p2, cfg.Target)
				}
				c.ScreenTime += time.Since(s0)
				if bd.UB <= gate {
					// A screened pair still counts as an attempt — the
					// row examined it — keeping Attempts the count of
					// considered pairs whether a run skips them via
					// memo, screen or trial.
					c.Attempts++
					c.PairsScreened++
					if bd.UB <= 0 {
						r.outcomes.put(f1, f2, pairOutcome)
					}
					continue
				}
				g = trialGate{on: true, bd: bd, gate: gate, p1: p1, p2: p2}
			}
			t = r.pairTrial(ctx, f1, f2, g)
		}
		c.add(t.counters())
		switch {
		case t.err != nil:
			if err := ctx.Err(); err != nil {
				r.discard(best)
				return nil, c, err
			}
		case t.skipped:
			// Stages 2/3: the DP aborted below the score floor, or the
			// refined post-alignment bound fell short. Either way the
			// trial's profit provably cannot beat the gate it was
			// planned under; memoize only bounds that rule out any
			// profit at all.
			if t.bound <= 0 {
				r.outcomes.put(f1, f2, kind)
			}
		case t.profit > 0 && (best == nil || t.profit > best.profit):
			r.discard(best)
			best = t
		default:
			if t.profit <= 0 {
				r.outcomes.put(f1, f2, kind)
			}
			r.discard(t)
		}
	}
	return best, c, nil
}

// pairTrial plans the pairwise trial of f1 and f2 under gate g, in
// place. The alignment is the trial's only until its body is built;
// then the runner takes it back cleared, so that it pins no body, for
// the next trial.
func (r *runner) pairTrial(ctx context.Context, f1, f2 *ir.Function, g trialGate) *trial {
	defer r.ares.Clear()
	return planTrial(ctx, r.m, f1, f2, r.claimed, r.cache, r.sizes, r.cfg.CoreOptions(), r.cfg, g, &r.ares)
}

// flattenTrial plans the k-ary re-merge fp describes for the pair.
func (r *runner) flattenTrial(ctx context.Context, fp *flattenPlan, f1, f2 *ir.Function) *trial {
	t := planFlattenTrial(ctx, r.m, fp, freshName(r.m, familyBaseName(fp.names), r.claimed), r.cfg)
	t.f1, t.f2 = f1, f2
	return t
}

// discard drops a trial the run does not commit — a loser, a filtered
// winner, every dry-run winner — from the module and releases its body
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

// commitStep settles a row's winning trial — filtered out, committed
// into the module, or (dry mode) proposed in the plan — and records it:
// the MergeRecord, the progress event, the commit clock. Apply commits
// its re-generated trials through here too.
func (r *runner) commitStep(t *trial) {
	c0 := time.Now()
	res, f1, f2 := r.res, t.f1, t.f2
	rec := MergeRecord{F1: f1.Name(), F2: f2.Name(), Merged: t.merged.Name(), Profit: t.profit, Stats: t.stats}
	// A record says what was merged, the same on every run; what it took
	// is in the Counters.
	rec.Stats.BuildTime, rec.Stats.RepairTime = 0, 0
	if t.family != nil {
		rec.Family = append([]string(nil), t.family.names...)
	}
	switch {
	case r.cfg.CommitFilter != nil && !r.cfg.CommitFilter(r.mergeIdx):
		// Filtered: recorded, not applied; both functions stay in play.
	case r.commitMode:
		rec.Committed = true
		if t.family != nil {
			// Flatten: rewrite every member thunk onto the fresh k-ary
			// head and drop the consumed heads; the rewritten thunks
			// leave the walk with their heads.
			for _, rw := range commitFlatten(r.m, t, r.families, r.retire, r.markPending) {
				r.consumed[rw] = true
			}
			res.Flattened++
		} else {
			recordPairFamily(r.families, t.merged, f1, f2)
			commit(f1, f2, t.merged)
			r.retire(f1)
			r.retire(f2)
			if r.markPending != nil {
				r.markPending(t.merged)
			}
		}
		r.consumed[f1], r.consumed[f2] = true, true
	default:
		// Dry mode: the merge is a proposal, not an applied change.
		dead := []*ir.Function{f1, f2}
		if t.family != nil {
			dead = append(dead, t.family.heads...)
			for _, nm := range t.family.names {
				if live := r.m.FuncByName(nm); live != nil {
					dead = append(dead, live)
				}
			}
		}
		for _, f := range dead {
			r.tomb[f], r.consumed[f] = true, true
		}
		r.claimed[rec.Merged] = true
		r.plan.Merges = append(r.plan.Merges, PlannedMerge{
			F1: rec.F1, F2: rec.F2, Merged: rec.Merged, Family: rec.Family, Profit: t.profit,
			Hash1: r.hashes.of(f1), Hash2: r.hashes.of(f2),
		})
	}
	if !rec.Committed {
		// A filtered or proposed merge leaves the module as it was. The
		// discard is on the codegen clock, not the commit clock.
		d0 := time.Now()
		r.discard(t)
		c0 = c0.Add(time.Since(d0))
	}
	res.Merges = append(res.Merges, rec)
	r.mergeIdx++
	r.progress(Progress{
		RunID: r.runID, Stage: StageCommit, F1: rec.F1, F2: rec.F2,
		Merged: rec.Merged, Profit: rec.Profit, Committed: rec.Committed, Done: r.mergeIdx,
	})
	res.CommitTime += time.Since(c0)
}

// outcomeCache memoizes candidate pairs whose merge trial completed and
// was unprofitable. A pairwise trial is a pure function of the two
// function bodies and the generator options, so as long as neither body
// changes the pair can be skipped on every later run — this is what
// makes a re-optimize after a small delta pay only for the delta.
// Entries are dropped whenever either function is re-indexed, removed
// or thunked. A *flatten* trial additionally depends on the family
// registry behind its head, so when a family breaks
// Session.pruneFamilies drops what its head memoized that the break can
// change (forgetFamily) — without that hook a memoized unprofitable
// flatten would suppress the (possibly profitable) pairwise nest the
// pair gets once the family is gone. Trials that error (cancellation,
// matrix caps) are never memoized. Only the session's own calls, which
// it serializes, touch the cache.
type outcomeCache struct {
	// pairs[f1][f2] records the directed pair (f1, f2) and the trial it
	// stands for; rev[f2] lists the f1 rows an invalidation of f2 must
	// visit.
	pairs map[*ir.Function]map[*ir.Function]outcomeKind
	rev   map[*ir.Function]map[*ir.Function]bool
}

// outcomeKind is the trial a memo entry stands for.
type outcomeKind uint8

const (
	// pairOutcome is a pairwise trial, or the bound that ruled one out.
	pairOutcome outcomeKind = iota + 1
	// flattenOutcome is a flatten trial (family.go).
	flattenOutcome
)

func newOutcomeCache() *outcomeCache {
	return &outcomeCache{
		pairs: map[*ir.Function]map[*ir.Function]outcomeKind{},
		rev:   map[*ir.Function]map[*ir.Function]bool{},
	}
}

// has reports whether (f1, f2) is memoized as unprofitable. A nil cache
// (FMSA's throwaway runs) never hits.
func (c *outcomeCache) has(f1, f2 *ir.Function) bool {
	return c != nil && c.pairs[f1][f2] != 0
}

// put memoizes (f1, f2) as unprofitable, found by a trial of kind.
func (c *outcomeCache) put(f1, f2 *ir.Function, kind outcomeKind) {
	if c == nil {
		return
	}
	row := c.pairs[f1]
	if row == nil {
		row = map[*ir.Function]outcomeKind{}
		c.pairs[f1] = row
	}
	row[f2] = kind
	back := c.rev[f2]
	if back == nil {
		back = map[*ir.Function]bool{}
		c.rev[f2] = back
	}
	back[f1] = true
}

// drop forgets the directed pair (f1, f2).
func (c *outcomeCache) drop(f1, f2 *ir.Function) {
	delete(c.pairs[f1], f2)
	if len(c.pairs[f1]) == 0 {
		delete(c.pairs, f1)
	}
	delete(c.rev[f2], f1)
	if len(c.rev[f2]) == 0 {
		delete(c.rev, f2)
	}
}

// invalidate drops every memoized pair involving f.
func (c *outcomeCache) invalidate(f *ir.Function) {
	if c == nil {
		return
	}
	for f2 := range c.pairs[f] {
		c.drop(f, f2)
	}
	for f1 := range c.rev[f] {
		c.drop(f1, f)
	}
}

// forgetFamily drops what head memoized that the break of its family
// can change: its flatten outcomes, and its pair outcomes against a
// partner that heads a family (isHead), which head may now flatten
// with. Its other pair outcomes stand: neither side heads a family, and
// only a freshly merged function ever becomes a head, so the pair can
// never start to flatten — its trial stays the pure function of two
// unchanged bodies it was.
func (c *outcomeCache) forgetFamily(head *ir.Function, isHead func(*ir.Function) bool) {
	if c == nil {
		return
	}
	for f2, kind := range c.pairs[head] {
		if kind == flattenOutcome || isHead(f2) {
			c.drop(head, f2)
		}
	}
	for f1 := range c.rev[head] {
		if c.pairs[f1][head] == flattenOutcome || isHead(f1) {
			c.drop(f1, head)
		}
	}
}
