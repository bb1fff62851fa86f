package driver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/canon"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/search"
)

// runner executes one pipeline run — the speculative planning stage and
// the greedy commit walk — against a set of index layers. It serves two
// modes from one code path:
//
//   - commit mode (Optimize, RunContext): merges are adopted into the
//     module, originals become thunks, and the persistent indexes are
//     updated in place, exactly like the historical one-shot pipeline;
//   - dry mode (Plan): decisions are identical, but consumed functions
//     are tombstoned in an overlay instead of being removed from the
//     finder, merged-function names are claimed in an overlay instead
//     of the module, trials always run against scratch clones, and the
//     chosen merges are recorded in a Plan. The module and the
//     persistent indexes come out untouched.
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
	// family. Only the (serial) commit stage touches it.
	families   *familySet
	commitMode bool
	runID      int64
	res        *Result
	progress   func(Progress)
	// markPending, when non-nil, tells the owning session which
	// functions this run mutated (commit mode only).
	markPending func(*ir.Function)

	// Dry-mode overlays.
	plan    *Plan
	tomb    map[*ir.Function]bool
	claimed map[string]bool

	// Component-capture mode (components.go): order restricts the walk
	// to one component's members, and capture records each row's
	// filtered candidate list and chosen trial — retained, not
	// committed — for the validated replay. capture implies dry-mode
	// overlays (tombs) with no plan.
	order   []*ir.Function
	capture *captureLog
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

// candidates is lookup through the dry-mode tombstone overlay:
// consumed functions are filtered out and the query widened so the
// surviving list is still the exact top-t among live candidates.
func (r *runner) candidates(f *ir.Function, t int) []*ir.Function {
	if r.commitMode || len(r.tomb) == 0 {
		return r.lookup(f, t)
	}
	raw := r.lookup(f, t+len(r.tomb))
	out := make([]*ir.Function, 0, t)
	for _, g := range raw {
		if r.tomb[g] {
			continue
		}
		out = append(out, g)
		if len(out) == t {
			break
		}
	}
	return out
}

// retire takes f out of play the moment a commit or fold rewrites its
// body; see retireIndexes for the rule.
func (r *runner) retire(f *ir.Function) {
	retireIndexes(r.finder, r.cands, r.cache, r.lens, r.hashes, r.funnel, r.markPending, f)
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

// walk runs the planning stage and the greedy commit walk over the
// candidate set. candidates must be the eligible functions in module
// definition order; the walk itself attempts merges largest-first
// (finder order, paper §5.5). It returns ctx.Err() when cancelled
// mid-run; everything committed before that stays.
func (r *runner) walk(ctx context.Context, candidates []*ir.Function) error {
	cfg := r.cfg
	res := r.res
	m := r.m
	if r.commitMode && cfg.CommitParallelism > 1 &&
		cfg.CommitFilter == nil && r.families == nil {
		// Component-parallel commit: capture per-component walks in
		// parallel, then replay them serially with per-row validation
		// (components.go). Family flattening and commit filters depend on
		// global walk state, so they stay on the serial path.
		return r.componentWalk(ctx, candidates)
	}
	if cfg.DupFold {
		r.foldStep(candidates)
	}
	opts := cfg.CoreOptions()
	order := r.order
	if order == nil {
		order = r.finder.Order()
	}
	if !r.commitMode && len(r.tomb) > 0 {
		kept := order[:0]
		for _, f := range order {
			if !r.tomb[f] {
				kept = append(kept, f)
			}
		}
		order = kept
	}

	// Planning stage: speculatively plan every ranked candidate pair in
	// a worker pool. Trials are pure (clone + scratch module), so the
	// only shared state they touch is read-only.
	var pl *planner
	if cfg.Parallelism > 1 {
		pl = r.planAll(ctx, order)
		pl.wait()
		res.Planned = pl.executed
	}

	// Commit stage: the serial greedy walk of the paper's pipeline.
	// Planned trials are consumed where available and recomputed lazily
	// where a commit shifted a candidate list.
	consumed := map[*ir.Function]bool{}
	mergeIdx := 0
	var runErr error
	// discard drops a rejected in-place trial's merged function from
	// the module; a rejected scratch-built trial returns its module to
	// the trial pool (nothing else references it once rejected).
	discard := func(t *trial) {
		if t == nil {
			return
		}
		if t.merged != nil && t.scratch == nil {
			m.RemoveFunc(t.merged)
			return
		}
		t.recycle()
	}
	// release frees f1's speculative trials once the walk is past them,
	// so the GC can reclaim their scratch modules during the walk.
	release := func(f1 *ir.Function) {
		if pl != nil {
			pl.release(f1)
		}
	}
commitLoop:
	for _, f1 := range order {
		if consumed[f1] {
			release(f1)
			continue
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		var best *trial
		row := r.candidates(f1, cfg.Threshold)
		var snap Result
		if r.capture != nil {
			snap = *res
		}
		for _, f2 := range row {
			if consumed[f2] {
				continue
			}
			// Cross-run memo: a pair whose bodies were already proven
			// unprofitable cannot become the best trial; skip its DP and
			// codegen entirely.
			if r.outcomes.has(f1, f2) {
				res.Attempts++
				res.OutcomeHits++
				continue
			}
			var t *trial
			// Deciding whether the pair flattens asks the reference index
			// for callers outside the family: a screen like any other.
			s0 := time.Now()
			fp := flattenFor(m, r.families, cfg.MaxFamily, f1, f2, best)
			res.ScreenTime += time.Since(s0)
			if fp != nil {
				// Family flattening replaces the pairwise trial: merge
				// the family's original bodies plus the newcomer into
				// one fresh k-ary candidate. Always planned here, on
				// the serial walk (planAll skips family pairs).
				if err := ctx.Err(); err != nil {
					runErr = err
					discard(best)
					break commitLoop
				}
				name := familyMergedName(m, fp.names, r.claimed)
				t = planFlattenTrial(ctx, m, fp, name, r.commitMode, cfg)
				t.f1, t.f2 = f1, f2
			} else {
				if pl != nil {
					t = pl.take(f1, f2)
				}
				if t != nil {
					res.CacheHits++
				} else {
					if err := ctx.Err(); err != nil {
						runErr = err
						discard(best)
						break commitLoop
					}
					// Stage 1: screen the pair against the admissible
					// profit bound before any DP. The gate is the best
					// profit seen in this row so far — a pair whose bound
					// cannot clear it cannot become the row's best trial,
					// so skipping it never changes a decision. A bound
					// that cannot even clear zero is memoized like any
					// finished unprofitable trial.
					g := noGate
					if r.funnel != nil {
						gate := 0
						if best != nil {
							gate = best.profit
						}
						s0 := time.Now()
						bd, p1, p2 := r.funnel.screen(f1, f2)
						if bd.UB <= gate && !bd.Exact {
							// The lazy bound omits unsettled slack, so a
							// failed gate is only provisional: settle the
							// slack terms and re-check before skipping.
							bd = costmodel.Bound(p1, p2, cfg.Target)
						}
						res.ScreenTime += time.Since(s0)
						if bd.UB <= gate {
							// A screened pair still counts as an attempt
							// — the walk examined it — keeping Attempts
							// the count of considered pairs whether a
							// run skips them via memo, screen or trial.
							res.Attempts++
							res.PairsScreened++
							if bd.UB <= 0 {
								r.outcomes.put(f1, f2)
							}
							continue
						}
						g = trialGate{on: true, bd: bd, gate: gate, p1: p1, p2: p2}
					}
					if r.commitMode {
						t = planTrialInPlace(ctx, m, f1, f2, r.cache, r.sizes, opts, cfg, g)
					} else {
						// Dry runs must not touch the module: replans use the
						// same pure scratch-clone trials as the workers.
						t = planTrial(ctx, f1, f2, r.cache, r.sizes, opts, cfg, g)
					}
				}
			}
			res.account(t)
			if t.err != nil {
				if err := ctx.Err(); err != nil {
					runErr = err
					discard(best)
					break commitLoop
				}
				continue
			}
			if t.skipped {
				// Stages 2/3: the DP aborted below the score floor, or
				// the refined post-alignment bound fell short. Either
				// way the trial's profit provably cannot beat the gate
				// it was planned under; memoize only bounds that rule
				// out any profit at all.
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
		release(f1)
		if r.capture != nil {
			// Record the row — the filtered list it saw, the chosen trial
			// (retained; capture trials are always scratch-built) and the
			// row's accounting delta — then tombstone as a dry run would.
			// Nothing is planned, claimed or reported here; the validated
			// replay re-emits whatever survives.
			r.capture.rows = append(r.capture.rows, capturedRow{
				f1: f1, list: row, best: best, stats: rowDelta(&snap, res),
			})
			if best != nil {
				consumed[f1] = true
				consumed[best.f2] = true
				r.tomb[f1] = true
				r.tomb[best.f2] = true
			}
			continue
		}
		if best == nil {
			continue
		}
		c0 := time.Now()
		rec := MergeRecord{
			F1: f1.Name(), F2: best.f2.Name(),
			Profit: best.profit, Stats: best.stats, Committed: true,
		}
		if best.family != nil {
			rec.Family = append([]string(nil), best.family.names...)
		}
		if cfg.CommitFilter != nil && !cfg.CommitFilter(mergeIdx) {
			rec.Committed = false
			if best.scratch == nil {
				rec.Merged = best.merged.Name()
				discard(best)
			} else if best.family != nil {
				rec.Merged = best.merged.Name()
			} else {
				rec.Merged = r.mergedName(f1, best.f2)
			}
		} else if r.commitMode {
			if best.scratch != nil {
				adopt(m, best)
			}
			rec.Merged = best.merged.Name()
			if best.family != nil {
				// Flatten: rewrite every member thunk onto the fresh
				// k-ary head and drop the consumed heads; the rewritten
				// thunks leave the walk with their heads.
				for _, rw := range commitFlatten(m, best, r.families, r.retire, r.markPending) {
					consumed[rw] = true
				}
				consumed[f1] = true
				consumed[best.f2] = true
				res.Flattened++
			} else {
				recordPairFamily(r.families, best.merged, f1, best.f2)
				commit(f1, best.f2, best.merged)
				consumed[f1] = true
				consumed[best.f2] = true
				r.retire(f1)
				r.retire(best.f2)
				if r.markPending != nil {
					r.markPending(best.merged)
				}
			}
		} else {
			// Dry mode: the merge is a proposal, not an applied change.
			rec.Committed = false
			var name string
			if best.family != nil {
				name = best.merged.Name()
				for _, nm := range best.family.names {
					if live := m.FuncByName(nm); live != nil {
						r.tomb[live] = true
						consumed[live] = true
					}
				}
				for _, h := range best.family.heads {
					r.tomb[h] = true
					consumed[h] = true
				}
			} else {
				name = r.mergedName(f1, best.f2)
			}
			r.claimed[name] = true
			rec.Merged = name
			consumed[f1] = true
			consumed[best.f2] = true
			r.tomb[f1] = true
			r.tomb[best.f2] = true
			pm := PlannedMerge{
				F1: f1.Name(), F2: best.f2.Name(), Merged: name, Profit: best.profit,
				Hash1: r.hashes.of(f1), Hash2: r.hashes.of(best.f2),
			}
			pm.Family = rec.Family
			r.plan.Merges = append(r.plan.Merges, pm)
		}
		res.Merges = append(res.Merges, rec)
		mergeIdx++
		r.progress(Progress{
			RunID: r.runID, Stage: StageCommit, F1: rec.F1, F2: rec.F2,
			Merged: rec.Merged, Profit: rec.Profit, Committed: rec.Committed, Done: mergeIdx,
		})
		res.CommitTime += time.Since(c0)
	}
	return runErr
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
// exists for the component-parallel commit walk, whose capture workers
// read and write the cache concurrently; every other caller runs on
// the session goroutine. Within one walk the memo never influences its
// own rows (each row f1 is processed once and only row f1 touches
// (f1, *) entries), so the write order across workers cannot affect
// decisions.
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
