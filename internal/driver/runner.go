package driver

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/search"
)

// runner executes one pipeline run — the paper's greedy loop (Fig. 16,
// §5.5): rank, try the top-t partners of a function, commit the best
// profitable one — against a set of index layers. One loop (walk) calls
// one row-step (row) and one commit-step (commitStep); it serves two
// modes from that one code path:
//
//   - commit mode (Optimize, RunContext, Apply): merges are adopted into
//     the module, originals become thunks, and the persistent indexes
//     are updated in place;
//   - dry mode (Plan, and the capture walks of components.go): decisions are
//     identical, but consumed functions are tombstoned in an overlay
//     instead of being removed from the finder, merged-function names
//     are claimed in an overlay instead of the module, trials always run
//     against scratch clones, and the chosen merges are recorded in a
//     Plan. The module and the persistent indexes come out untouched.
type runner struct {
	m      *ir.Module
	cfg    Config
	cache  *align.Cache
	finder search.Finder
	// cands, when non-nil, memoizes finder top-t lists across runs;
	// fingerprint-radius invalidation keeps every served list exactly
	// what the finder would return.
	cands *candidateCache
	// lens, when non-nil, is the session's canonical-view layer: the
	// finder already indexes through it, and foldStep widens duplicate
	// folding from syntactic identity to canonical congruence.
	lens *canon.Lens
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
	// hopeless alignments mid-DP, and a trial only materializes (clone
	// + codegen) once its computed alignment still clears the gate.
	// Every pruned pair provably could not have changed a decision, so
	// funnel-on and funnel-off runs commit identical merge sets.
	funnel *funnel
	// families, when non-nil, is the session's merge-family registry:
	// pairs involving a family head flatten (family.go) instead of
	// nesting, and every pairwise commit records a new two-member
	// family. Only the loop's own goroutine writes it; capture walks
	// leave every row that could flatten to the loop.
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

	// Dry-mode overlays. base is a capture walk's read-only view of the
	// tombstones its parent run already holds (a dry run's folded
	// duplicates); tomb is always private to the runner.
	plan       *Plan
	tomb, base map[*ir.Function]bool
	claimed    map[string]bool
}

// lookup answers a finder query through the candidate-list cache:
// lists the cache proves unchanged are served without touching the
// finder; everything else is queried and cached for later runs.
func (r *runner) lookup(f *ir.Function, t int) []*ir.Function {
	if r.cands == nil || t != r.cfg.Threshold {
		return r.finder.Candidates(f, t)
	}
	if l, ok := r.cands.get(f); ok {
		return l
	}
	l := r.finder.Candidates(f, t)
	r.cands.put(f, l)
	return l
}

// candidates is lookup through the dry-mode tombstone overlay: the
// exact top-t among live candidates. The finder's order is total and
// prefix-consistent, so the query widens by what it needs — t, 2t, 4t,
// … up to t plus every tombstone — until t live entries survive or the
// raw list comes back short; the first probe is the plain-t query the
// candidate cache serves.
func (r *runner) candidates(f *ir.Function, t int) []*ir.Function {
	dead := len(r.tomb) + len(r.base)
	if r.commitMode || dead == 0 {
		return r.lookup(f, t)
	}
	for k := t; ; k = min(2*k, t+dead) {
		raw := r.lookup(f, k)
		out := make([]*ir.Function, 0, t)
		for _, g := range raw {
			if !r.tomb[g] && !r.base[g] {
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
// body: out of the finder and the candidate-list cache, its cached
// linearization invalidated (it would pin the dead instructions), its
// canonical view, fold hash and screening profile dropped, and — when
// an owning session exists — scheduled for re-indexing at the next
// sync. Every index layer is nil-safe.
func (r *runner) retire(f *ir.Function) {
	r.finder.Remove(f)
	r.cands.remove(f)
	r.cache.Invalidate(f)
	r.lens.Invalidate(f)
	delete(r.hashes, f)
	r.funnel.invalidate(f)
	if r.markPending != nil {
		r.markPending(f)
	}
}

// mergedName picks the collision-free name for merging f1 and f2,
// consulting the dry-mode claimed overlay alongside the module so a dry
// run names its proposals exactly as a commit run would.
func (r *runner) mergedName(f1, f2 *ir.Function) string {
	base := mergedBaseName(f1, f2)
	name := base
	for i := 1; r.m.FuncByName(name) != nil || r.claimed[name]; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	return name
}

// foldStep collapses families of structurally identical candidates
// before any alignment runs (Config.DupFold): every profitable
// duplicate becomes a forwarder to its family representative (commit
// mode) or a tombstoned PlannedFold (dry mode) and leaves the candidate
// set, so exact clone families cost zero DP cells. The representative
// stays a candidate. Families follow candidate (module definition)
// order, keeping folding deterministic at any parallelism. Folds are
// commits: finding the families, building the forwarders and retiring
// the indexes all run on the commit clock.
func (r *runner) foldStep(candidates []*ir.Function) {
	c0 := time.Now()
	defer func() { r.res.CommitTime += time.Since(c0) }()
	hashOf, eq := r.hashes.of, search.EqualFunctions
	if r.lens != nil {
		hashOf, eq = r.lens.Hash, r.canonEqual
	}
	for _, fam := range search.FamiliesBy(candidates, hashOf, eq) {
		rep := fam[0]
		for _, dup := range fam[1:] {
			profit := r.sizes[dup] - costmodel.ForwarderBytes(r.cfg.Target, len(dup.Params()))
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

// canonEqual is the duplicate-fold equivalence of canonical-view
// sessions: the two canonical views must be structurally identical (GVN
// congruence — commuted operands, unfolded constants, redundant memory
// traffic and spurious blocks all canonicalize away), and, because the
// fold rewrites the ORIGINAL duplicate into a forwarder, a pair whose
// originals are not already syntactically identical must additionally
// pass an interpreter differential before it is trusted. Canonical
// congruence is sound by construction; the interp check is a cheap
// independent witness that the originals really do agree observably.
func (r *runner) canonEqual(a, b *ir.Function) bool {
	if !search.EqualFunctions(r.lens.Body(a), r.lens.Body(b)) {
		return false
	}
	if search.EqualFunctions(a, b) {
		return true
	}
	return interpEquivalent(a, b)
}

// interpEquivalent runs a and b on a spread of deterministic argument
// seeds and compares outcomes (return value, termination, observable
// trace). Functions the interpreter cannot execute (unsupported ops,
// required externals) yield matching error outcomes only when both fail
// identically, so unsupported pairs are rejected rather than folded.
func interpEquivalent(a, b *ir.Function) bool {
	proto := interp.NewEnv()
	for seed := int64(1); seed <= 5; seed++ {
		oa := interp.Run(proto, a, interp.ArgsFor(a, seed))
		ob := interp.Run(proto, b, interp.ArgsFor(b, seed))
		if same, _ := interp.SameBehavior(oa, ob); !same {
			return false
		}
	}
	return true
}

// walk is the greedy loop over the candidate set. candidates must be
// the eligible functions in module definition order; the loop itself
// attempts merges largest-first (finder order, paper §5.5): one
// row-step per live function, one commit-step per profitable row. At
// Config.Parallelism > 1 the rows of independent components are first
// captured side by side (components.go), and a captured row whose
// candidate list still matches at its turn stands in for the row-step;
// the serial loop is that replay with nothing captured. It returns
// ctx.Err() when cancelled mid-run; everything committed before that
// stays (a cancelled capture commits nothing but the folds).
func (r *runner) walk(ctx context.Context, candidates []*ir.Function) error {
	cfg, res := r.cfg, r.res
	if cfg.DupFold {
		r.foldStep(candidates)
	}
	order := r.finder.Order()
	if len(r.tomb) > 0 {
		kept := order[:0]
		for _, f := range order {
			if !r.tomb[f] {
				kept = append(kept, f)
			}
		}
		order = kept
	}
	var captured map[*ir.Function]capturedRow
	if cfg.Parallelism > 1 {
		var err error
		if captured, err = r.capture(ctx, order); err != nil {
			return err
		}
	}
	for _, f1 := range order {
		row, ok := captured[f1]
		if r.consumed[f1] {
			r.discard(row.best)
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		list := r.candidates(f1, cfg.Threshold)
		var best *trial
		if ok && slices.Equal(row.list, list) {
			// The captured decision is provably the one this turn would
			// make (see components.go): transplant it.
			best = row.best
			res.add(row.Counters)
			res.Transplanted++
		} else {
			if ok {
				res.Repaired++
				r.discard(row.best)
			}
			var c Counters
			var err error
			best, c, err = r.row(ctx, f1, list)
			res.add(c)
			if err != nil {
				return err
			}
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
		if fp != nil {
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
						r.outcomes.put(f1, f2)
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
				r.outcomes.put(f1, f2)
			}
		case t.profit > 0 && (best == nil || t.profit > best.profit):
			r.discard(best)
			best = t
		default:
			if t.profit <= 0 {
				r.outcomes.put(f1, f2)
			}
			r.discard(t)
		}
	}
	return best, c, nil
}

// pairTrial plans the pairwise trial of f1 and f2 under gate g. Commit
// runs build in place; dry runs must not touch the module and capture
// walks share it, so both use the pure scratch-clone trial.
func (r *runner) pairTrial(ctx context.Context, f1, f2 *ir.Function, g trialGate) *trial {
	if r.commitMode {
		return planTrialInPlace(ctx, r.m, f1, f2, r.cache, r.sizes, r.cfg.CoreOptions(), r.cfg, g)
	}
	return planTrial(ctx, f1, f2, r.cache, r.sizes, r.cfg.CoreOptions(), r.cfg, g)
}

// flattenTrial plans the k-ary re-merge fp describes for the pair.
func (r *runner) flattenTrial(ctx context.Context, fp *flattenPlan, f1, f2 *ir.Function) *trial {
	name := familyMergedName(r.m, fp.names, r.claimed)
	t := planFlattenTrial(ctx, r.m, fp, name, r.commitMode, r.cfg)
	t.f1, t.f2 = f1, f2
	return t
}

// discard drops a rejected in-place trial's merged function from the
// module; a rejected scratch-built trial returns its module to the
// trial pool (nothing else references it once rejected). Nil-safe.
func (r *runner) discard(t *trial) {
	if t == nil {
		return
	}
	if t.merged != nil && t.scratch == nil {
		r.m.RemoveFunc(t.merged)
		return
	}
	t.recycle()
}

// commitStep settles a row's winning trial — filtered out, committed
// into the module, or (dry mode) proposed in the plan — and records it:
// the MergeRecord, the progress event, the commit clock. Apply commits
// its re-generated trials through here too.
func (r *runner) commitStep(t *trial) {
	c0 := time.Now()
	res, f1, f2 := r.res, t.f1, t.f2
	rec := MergeRecord{F1: f1.Name(), F2: f2.Name(), Profit: t.profit, Stats: t.stats}
	// A record says what was merged, the same on every run; what it took
	// is in the Counters.
	rec.Stats.BuildTime, rec.Stats.RepairTime = 0, 0
	if t.family != nil {
		rec.Family = append([]string(nil), t.family.names...)
	}
	// A trial built in place or as a flatten already carries its
	// collision-free name; a scratch-built pair is named against the
	// module (and the dry-mode claims) only now.
	proposed := func() string {
		if t.scratch != nil && t.family == nil {
			return r.mergedName(f1, f2)
		}
		return t.merged.Name()
	}
	switch {
	case r.cfg.CommitFilter != nil && !r.cfg.CommitFilter(r.mergeIdx):
		// Filtered: recorded, not applied; both functions stay in play.
		rec.Merged = proposed()
		r.discard(t)
	case r.commitMode:
		rec.Committed = true
		if t.scratch != nil {
			adopt(r.m, t)
		}
		rec.Merged = t.merged.Name()
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
		rec.Merged = proposed()
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
		t.recycle()
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
// registry behind its head, so Session.pruneFamilies drops a head's
// entries whenever its family breaks — without that hook a memoized
// unprofitable flatten would suppress the (possibly profitable)
// pairwise nest the pair gets once the family is gone. Trials that
// error (cancellation, matrix caps) are never memoized. The mutex
// exists for the component scheduler, whose capture workers
// read and write the cache concurrently; every other caller runs on
// the session goroutine. Only row f1 touches (f1, *) entries, so the
// write order across workers cannot affect decisions; a captured row
// the loop re-runs meets its own entries, which are facts about the
// two bodies either way.
type outcomeCache struct {
	mu sync.Mutex
	// pairs[f1][f2] records the directed pair (f1, f2); rev[f2] lists
	// the f1 rows an invalidation of f2 must visit.
	pairs map[*ir.Function]map[*ir.Function]bool
	rev   map[*ir.Function]map[*ir.Function]bool
}

func newOutcomeCache() *outcomeCache {
	return &outcomeCache{
		pairs: map[*ir.Function]map[*ir.Function]bool{},
		rev:   map[*ir.Function]map[*ir.Function]bool{},
	}
}

// has reports whether (f1, f2) is memoized as unprofitable. A nil cache
// (FMSA's throwaway runs) never hits.
func (c *outcomeCache) has(f1, f2 *ir.Function) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pairs[f1][f2]
}

// put memoizes (f1, f2) as unprofitable.
func (c *outcomeCache) put(f1, f2 *ir.Function) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row := c.pairs[f1]
	if row == nil {
		row = map[*ir.Function]bool{}
		c.pairs[f1] = row
	}
	row[f2] = true
	back := c.rev[f2]
	if back == nil {
		back = map[*ir.Function]bool{}
		c.rev[f2] = back
	}
	back[f1] = true
}

// invalidate drops every memoized pair involving f.
func (c *outcomeCache) invalidate(f *ir.Function) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for f2 := range c.pairs[f] {
		delete(c.rev[f2], f)
		if len(c.rev[f2]) == 0 {
			delete(c.rev, f2)
		}
	}
	delete(c.pairs, f)
	for f1 := range c.rev[f] {
		delete(c.pairs[f1], f)
		if len(c.pairs[f1]) == 0 {
			delete(c.pairs, f1)
		}
	}
	delete(c.rev, f)
}
