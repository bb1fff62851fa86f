// Package driver runs function merging over whole modules, implementing
// the pipeline of the paper's Figures 1 and 16: candidate ranking with
// an exploration threshold, pairwise merging (SalSSA or the FMSA
// baseline), the profitability cost model, thunk creation for committed
// merges and rollback for rejected ones, plus the timing and memory
// accounting the evaluation figures report.
//
// A run is keyed by a persistent Session (see session.go) and has two
// parts:
//
//   - index build: OpenSession fingerprints the candidate set once
//     (linearizations are cached on first use); Update/Remove maintain
//     the indexes incrementally as callers mutate the module between
//     runs.
//   - the greedy loop (runner.go): for each function in ranking order
//     one row-step — screen, align and trial-merge its top-t partners,
//     keep the most profitable — and, for a profitable row, one
//     commit-step that adopts the merged function into the module,
//     replaces the originals with thunks and updates the indexes.
//     Session.Plan runs the same loop dry, returning a serializable Plan
//     that Session.Apply can commit later. The loop runs on the caller's
//     goroutine.
//
// Everything polls a context.Context, so a run can be cancelled mid-way;
// committed merges are never rolled back, and the module remains valid.
package driver

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fmsa"
	"repro/internal/ir"
	"repro/internal/search"
	"repro/internal/transform"
)

// Algorithm selects the merging technique.
type Algorithm int

// Supported merging techniques.
const (
	// SalSSA is the paper's contribution: merging directly on the SSA
	// form.
	SalSSA Algorithm = iota
	// SalSSANoPC is SalSSA without phi-node coalescing (Figure 20).
	SalSSANoPC
	// FMSA is the state-of-the-art baseline: register demotion before
	// merging, register promotion afterwards.
	FMSA
)

// String returns the algorithm name as used in the paper's figures.
func (a Algorithm) String() string {
	switch a {
	case SalSSANoPC:
		return "SalSSA-NoPC"
	case FMSA:
		return "FMSA"
	default:
		return "SalSSA"
	}
}

// Stage identifies which pipeline stage a Progress event reports on.
type Stage int

// Pipeline stages.
const (
	// StageCommit is the commit-step of the greedy loop (thunk creation,
	// ranking updates): the only stage that reports.
	StageCommit Stage = iota
)

// String names the stage.
func (s Stage) String() string { return "commit" }

// Progress is one observable pipeline event: a profitable merge that
// was recorded (committed, filtered, or — during a dry Session.Plan run —
// proposed).
type Progress struct {
	// RunID identifies the run emitting the event: every Optimize,
	// Plan and Apply call gets a fresh, process-globally monotonic ID,
	// so concurrent runs sharing one observer can be attributed at the
	// callback.
	RunID int64
	// Stage is the reporting stage.
	Stage Stage
	// F1 and F2 name the candidate pair.
	F1, F2 string
	// Merged names the merged function.
	Merged string
	// Profit is the byte saving: exactly what committing the merge takes
	// off costmodel.ModuleBytes.
	Profit int
	// Committed reports whether the merge was applied (always false for
	// dry-run proposals).
	Committed bool
	// Done counts the run's events so far (the total is not known in
	// advance).
	Done int
}

// Config controls a merging run.
type Config struct {
	// Algorithm is the merging technique.
	Algorithm Algorithm
	// Threshold is the exploration threshold t: how many ranked
	// candidates to try per function (paper uses 1, 5, 10).
	Threshold int
	// Target selects the size model.
	Target costmodel.Target
	// MaxCells caps alignment matrices (0 = none): the guard against an
	// unrelated giant pair that clears the screen (align.Options.MaxCells).
	MaxCells int64
	// SkipHot excludes the named functions from merging. This is the
	// paper's §5.7 remedy for runtime overhead: "profiling information
	// could be used to avoid adding overhead when mergeable code is in
	// the most frequently executed code path".
	SkipHot map[string]bool
	// MinInstrs skips functions smaller than this (0 = keep all).
	MinInstrs int
	// DupFold folds structurally identical functions into forwarding
	// thunks before any alignment runs: exact clone families are
	// deduplicated for free (zero DP cells) and only their
	// representative stays in the candidate set.
	DupFold bool
	// MaxFamily bounds merge families: when >= 3, every committed merge
	// records its members' original bodies, and a merged function that
	// finds another profitable partner is *flattened* — the family's
	// originals plus the newcomer re-merge into one fresh k-ary body
	// behind an integer function identifier, and every member thunk is
	// rewritten to target it — instead of nesting another pairwise
	// layer. Growth stops at MaxFamily members; further partners nest,
	// the historical behaviour. Values < 3 (including the zero value)
	// disable family tracking entirely: every merge is pairwise and
	// nothing extra is retained.
	MaxFamily int
	// CommitFilter, when non-nil, decides whether the i-th profitable
	// merge is committed (used by the Figure 19 isolation study).
	CommitFilter func(i int) bool
	// Progress, when non-nil, observes pipeline events. Calls within one
	// run all come from the goroutine running the loop. Events are
	// emitted while the run holds its session's lock: the callback must
	// not call back into the Session (Update/Remove/Plan/...), or it
	// deadlocks.
	Progress func(Progress)
}

// MergeRecord describes one committed (or filtered) profitable merge.
// A non-empty Family marks a flattening: the named originals (in fid
// order) were re-merged into one k-ary body and their thunks rewritten,
// replacing the previous merged head(s). Profit is exactly the commit's
// change to costmodel.ModuleBytes (for a filtered merge, what the
// commit would have taken off).
type MergeRecord struct {
	F1, F2, Merged string
	Family         []string
	Profit         int
	Stats          core.Stats
	Committed      bool
}

// FoldRecord describes one duplicate fold: Dup's body was replaced by a
// forwarder to the structurally identical Rep without spending a single
// alignment DP cell. Profit is exactly the fold's change to
// costmodel.ModuleBytes.
type FoldRecord struct {
	Dup, Rep string
	Profit   int
}

// Result reports what a merging run did.
type Result struct {
	Algorithm Algorithm
	Threshold int
	// BaselineBytes is the module's estimated object size before merging
	// (the LTO baseline); FinalBytes after.
	BaselineBytes, FinalBytes int
	// Merges lists profitable merge operations in commit order.
	Merges []MergeRecord
	// Folds lists the duplicate folds performed before alignment
	// (Config.DupFold), in fold order.
	Folds []FoldRecord
	// Counters is what the run's rows and commits cost.
	Counters
	// Families counts the merge families alive after the run and
	// FamilySizes is their size histogram (member count -> families);
	// both are zero unless Config.MaxFamily enables family tracking.
	// Flattened counts the commits of this run that replaced a family
	// head with a re-merged k-ary body instead of nesting.
	Families    int
	FamilySizes map[int]int
	Flattened   int
	// Search reports the candidate finder's query accounting.
	Search search.Stats
	// AlignCache reports the per-run linearization/class cache: every
	// Seq hit is a candidate pair trial that skipped re-linearizing and
	// re-interning a function.
	AlignCache align.CacheStats
	// TotalTime is the whole run (Figure 24's overhead).
	TotalTime time.Duration
}

// Counters is the accounting every row-step and commit-step folds into
// the run's Result through add — one struct, so a row's share is summed
// in one place whichever loop (walk, Apply) ran it.
type Counters struct {
	// Attempts counts the candidate pairs the loop considered (including
	// unprofitable ones), however cheaply each was dispatched.
	Attempts int
	// OutcomeHits counts pairs served from the session's cross-run
	// outcome memo: already proven unprofitable on an earlier run of the
	// same Session, skipped without any alignment or codegen. Always 0
	// for one-shot runs.
	OutcomeHits int
	// Planning-funnel accounting (the first, second and fourth all zero
	// under FMSA, which plans every pair in full). PairsScreened counts
	// candidate pairs the stage-1 profit upper bound excluded before any
	// DP; DPAborted counts alignments the stage-2 bounded DP abandoned
	// mid-matrix; and of the trials whose alignment completed,
	// TrialsBuilt materialized a merged body while TrialsSkipped were
	// rejected by the post-alignment refined bound without any codegen.
	// Screened, aborted and skipped pairs all stay counted in Attempts.
	PairsScreened, DPAborted, TrialsBuilt, TrialsSkipped int
	// AlignTime and CodegenTime accumulate the two core phases
	// (Figure 23). CodegenTime is the sum of BuildTime, RepairTime and
	// SimplifyTime: SSA repair inside the generator
	// (core.Stats.RepairTime), the clean-up of the finished body
	// (transform.Simplify), and the rest of building a trial — the
	// generator up to repair, the scratch clones, pricing, for a
	// flatten its progressive alignment, and disposing of the body once
	// the trial loses (ir.Release).
	// ScreenTime accumulates the planning funnel's bound computations —
	// the stage-1 screen and the stage-3 refinement after each
	// alignment, lazily-filled slack terms included — and, under family
	// tracking, the check whether a pair flattens; CommitTime is the
	// wall clock of duplicate folding and the commit-steps — thunk
	// building, index retirement, plan records.
	AlignTime, CodegenTime              time.Duration
	BuildTime, RepairTime, SimplifyTime time.Duration
	ScreenTime, CommitTime              time.Duration
	// PeakMatrixBytes is the largest alignment matrix (Figure 22's
	// peak-memory proxy); SumMatrixBytes accumulates all matrices.
	PeakMatrixBytes, SumMatrixBytes int64
	// AllocBytes is what the run allocated on the heap and GCTime the
	// CPU time the collector spent meanwhile. TrialAllocBytes sums what
	// was allocated while each trial's body was built and priced (its
	// scratch clones included), and DiscardedTrialAllocBytes the part of
	// that spent on trials the run threw away. All four are deltas of
	// process-wide runtime counters (runtime/metrics
	// /gc/heap/allocs:bytes and /cpu/classes/gc/total:cpu-seconds): they
	// include whatever else the process did meanwhile, other sessions'
	// runs among it.
	AllocBytes, TrialAllocBytes, DiscardedTrialAllocBytes int64
	GCTime                                                time.Duration
}

// add folds d into c: everything sums except the peak, which is a max.
func (c *Counters) add(d Counters) {
	c.Attempts += d.Attempts
	c.OutcomeHits += d.OutcomeHits
	c.PairsScreened += d.PairsScreened
	c.DPAborted += d.DPAborted
	c.TrialsBuilt += d.TrialsBuilt
	c.TrialsSkipped += d.TrialsSkipped
	c.AlignTime += d.AlignTime
	c.CodegenTime += d.CodegenTime
	c.BuildTime += d.BuildTime
	c.RepairTime += d.RepairTime
	c.SimplifyTime += d.SimplifyTime
	c.ScreenTime += d.ScreenTime
	c.CommitTime += d.CommitTime
	c.SumMatrixBytes += d.SumMatrixBytes
	c.PeakMatrixBytes = max(c.PeakMatrixBytes, d.PeakMatrixBytes)
	c.AllocBytes += d.AllocBytes
	c.TrialAllocBytes += d.TrialAllocBytes
	c.DiscardedTrialAllocBytes += d.DiscardedTrialAllocBytes
	c.GCTime += d.GCTime
}

// readMetric reads one process-wide runtime metric.
func readMetric(name string) metrics.Value {
	s := [1]metrics.Sample{{Name: name}}
	metrics.Read(s[:])
	return s[0].Value
}

// heapAllocs is the count of bytes the process has allocated on the
// heap so far.
func heapAllocs() int64 { return int64(readMetric("/gc/heap/allocs:bytes").Uint64()) }

// gcCPU is the CPU time the process's collector has spent so far.
func gcCPU() time.Duration {
	return time.Duration(readMetric("/cpu/classes/gc/total:cpu-seconds").Float64() * float64(time.Second))
}

// runClock is what a run's totals are measured from: its start time and
// the runtime counters at the start.
type runClock struct {
	start time.Time
	alloc int64
	gc    time.Duration
}

func startRun() runClock { return runClock{time.Now(), heapAllocs(), gcCPU()} }

// stop records the run's wall clock, allocation and collector time in
// res.
func (c runClock) stop(res *Result) {
	res.TotalTime = time.Since(c.start)
	res.AllocBytes, res.GCTime = heapAllocs()-c.alloc, gcCPU()-c.gc
}

// Reduction returns the percentage object-size reduction over the
// baseline.
func (r *Result) Reduction() float64 {
	if r.BaselineBytes == 0 {
		return 0
	}
	return 100 * float64(r.BaselineBytes-r.FinalBytes) / float64(r.BaselineBytes)
}

// CoreOptions derives the generator options for the algorithm; the
// facade's MergePair shares it so pair merges and whole-module runs
// never diverge on generator knobs.
func (c Config) CoreOptions() core.Options {
	var opts core.Options
	switch c.Algorithm {
	case SalSSANoPC:
		opts = core.DefaultOptions()
		opts.PhiCoalescing = false
	case FMSA:
		opts = fmsa.Options()
	default:
		opts = core.DefaultOptions()
	}
	opts.Align.MaxCells = c.MaxCells
	return opts
}

// progressFn returns a nil-safe progress callback.
func (c Config) progressFn() func(Progress) {
	if c.Progress == nil {
		return func(Progress) {}
	}
	return c.Progress
}

// Run performs function merging on m in place and returns the report.
// It is RunContext without cancellation.
func Run(m *ir.Module, cfg Config) *Result {
	res, _ := RunContext(context.Background(), m, cfg)
	return res
}

// RunContext performs function merging on m in place: a one-shot
// session — OpenSession, one Optimize, Close. On cancellation it stops
// between trials, leaves every already-committed merge in place (the
// module still verifies), and returns the partial result together with
// ctx.Err(). Callers that re-optimize an evolving module should hold a
// Session open instead and report deltas through Update/Remove, which
// turns the per-run index build into incremental maintenance.
func RunContext(ctx context.Context, m *ir.Module, cfg Config) (*Result, error) {
	// A one-shot session can never re-optimize, so chains cannot form
	// and family tracking would only clone original bodies that die
	// unused at Close: force it off. Callers that want flattening hold
	// a Session open across runs.
	cfg.MaxFamily = 0
	s, err := OpenSession(ctx, m, cfg)
	if err != nil {
		// A dead context must still produce the historical stub result
		// (baseline priced, nothing touched) rather than a nil report.
		if ctx.Err() != nil && m != nil {
			clk := startRun()
			res := &Result{Algorithm: cfg.Algorithm, Threshold: cfg.Threshold}
			res.BaselineBytes = costmodel.ModuleBytes(m, cfg.Target)
			res.FinalBytes = res.BaselineBytes
			clk.stop(res)
			return res, err
		}
		return nil, err
	}
	defer s.Close()
	return s.Optimize(ctx)
}

// trial is the outcome of planning one candidate pair: the merged
// function — built in place, or in a private scratch module — its stats
// and profit, plus the phase accounting its row folds into the
// Result.
type trial struct {
	f1, f2  *ir.Function
	scratch *ir.Module
	merged  *ir.Function
	stats   core.Stats
	profit  int
	err     error
	// family marks a flatten trial (see family.go): the merged function
	// is a k-ary body over the plan's sources instead of a pairwise
	// merge of f1 and f2, and committing rewrites every member thunk.
	family *flattenPlan

	// skipped marks a funnel rejection: the trial was never
	// materialized because its profit provably cannot exceed the gate
	// it was planned under. bound carries the admissible upper bound
	// that proved it (the gate itself for a stage-2 DP abort, flagged
	// by dpAborted; the refined post-alignment bound for a stage-3
	// skip) — the consumer memoizes the pair only when bound <= 0,
	// exactly when a full trial would have been unprofitable.
	skipped   bool
	dpAborted bool
	bound     int

	// screenTime is stage 3's share of the trial: the refined bound and
	// whatever slack terms it had to settle, which neither the alignment
	// nor the codegen clock covers. simplifyTime is the part of
	// codegenTime spent in transform.Simplify (SSA repair's part is
	// stats.RepairTime).
	alignTime, codegenTime, screenTime time.Duration
	simplifyTime                       time.Duration
	matrixBytes                        int64
	// allocBytes is what building and pricing the body allocated (see
	// Counters.TrialAllocBytes).
	allocBytes int64
}

// counters is what one finished trial cost: one attempt, how the funnel
// dispatched it, its phase clocks and its alignment matrix footprint.
func (t *trial) counters() Counters {
	c := Counters{
		Attempts:  1,
		AlignTime: t.alignTime, CodegenTime: t.codegenTime, ScreenTime: t.screenTime,
		BuildTime:  t.codegenTime - t.stats.RepairTime - t.simplifyTime,
		RepairTime: t.stats.RepairTime, SimplifyTime: t.simplifyTime,
		PeakMatrixBytes: t.matrixBytes, SumMatrixBytes: t.matrixBytes,
		TrialAllocBytes: t.allocBytes,
	}
	switch {
	case t.err != nil:
	case t.dpAborted:
		c.DPAborted = 1
	case t.skipped:
		c.TrialsSkipped = 1
	default:
		c.TrialsBuilt = 1
	}
	return c
}

// trialGate is the funnel verdict a trial is planned under: the stage-1
// pair bound and the profit gate (the best profit seen so far in the
// row, or 0) that stages 2 and 3 prune against. The profiles ride along
// so stage 3 can settle a lazy bound's slack terms (costmodel.Bound)
// when — and only when — it is about to rule the trial out. The zero
// value (off) plans the trial unconditionally — FMSA, Apply replays and
// family flatten trials always use it.
type trialGate struct {
	on     bool
	bd     costmodel.PairBound
	gate   int
	p1, p2 *costmodel.FuncProfile
}

var noGate = trialGate{}

// scratchPool recycles trial scratch modules across trials: with lazy
// materialization only gate survivors allocate one, and the reuse keeps
// the allocator out of the planning hot loop entirely.
var scratchPool sync.Pool

func getScratch() *ir.Module {
	if m, _ := scratchPool.Get().(*ir.Module); m != nil {
		return m
	}
	return ir.NewModule()
}

// putScratch strips every function out of m, releasing its body
// (ir.Release), and returns m to the pool. The caller must be the last
// reference holder — nothing may read t.scratch, or a body in it, after
// its trial is discarded, adopted or released.
func putScratch(m *ir.Module) {
	if m == nil || len(m.Globals) > 0 {
		return
	}
	for len(m.Funcs) > 0 {
		f := m.Funcs[len(m.Funcs)-1]
		m.RemoveFunc(f)
		ir.Release(f)
	}
	scratchPool.Put(m)
}

// recycle returns a dead trial's scratch module, and every body in it,
// to the pools and drops the references that would otherwise pin the
// trial's function graphs. A trial built in place has nothing to return.
func (t *trial) recycle() {
	if t.scratch == nil {
		return
	}
	putScratch(t.scratch)
	t.scratch, t.merged = nil, nil
}

// planTrial aligns and — when the alignment clears its gate — merges one
// candidate pair without touching the module (dry runs). The alignment
// runs over the originals' cached sequences; only a surviving trial
// clones the pair into a scratch module (merging the originals directly
// would rewrite use-lists on their values, which a dry run must leave
// alone) and remaps the alignment onto the clones. The clones are
// structurally identical to the originals — CloneSeq reuses each original's class
// vector and panics on divergence — so the merged function (and its
// profit) matches what merging the originals would produce. The
// alignment goes into buf (nil: a fresh Result), which the trial is done
// with once planTrial returns.
func planTrial(ctx context.Context, f1, f2 *ir.Function, cache *align.Cache, preSize map[*ir.Function]int, opts core.Options, cfg Config, g trialGate, buf *align.Result) *trial {
	t := &trial{f1: f1, f2: f2}
	ares := t.alignStage(ctx, cache.Seq(f1), cache.Seq(f2), opts, cfg, g, buf)
	if ares == nil {
		return t
	}
	t1, a1 := time.Now(), heapAllocs()
	t.scratch = getScratch()
	c1, _ := ir.CloneFunction(f1, f1.Name())
	c2, _ := ir.CloneFunction(f2, f2.Name())
	t.scratch.AddFunc(c1)
	t.scratch.AddFunc(c2)
	remapPairs(ares.Pairs, cache.CloneSeq(c1, f1), cache.CloneSeq(c2, f2))
	t.codegen(ctx, t.scratch, c1, c2, mergedBaseName(f1, f2), ares, preSize, opts, cfg)
	t.codegenTime, t.allocBytes = time.Since(t1), heapAllocs()-a1
	return t
}

// planTrialInPlace merges the originals directly into m, like the serial
// pipeline always did — no clones, no scratch module (and none is
// allocated when the funnel rejects the pair first). Only the goroutine
// running a committing loop may call it, since it mutates use-lists on
// the pair and adds the merged function to m; the caller discards the
// merged function on rejection. buf is as for planTrial.
func planTrialInPlace(ctx context.Context, m *ir.Module, f1, f2 *ir.Function, cache *align.Cache, preSize map[*ir.Function]int, opts core.Options, cfg Config, g trialGate, buf *align.Result) *trial {
	t := &trial{f1: f1, f2: f2}
	ares := t.alignStage(ctx, cache.Seq(f1), cache.Seq(f2), opts, cfg, g, buf)
	if ares == nil {
		return t
	}
	t1, a1 := time.Now(), heapAllocs()
	t.codegen(ctx, m, f1, f2, MergedName(m, f1, f2), ares, preSize, opts, cfg)
	t.codegenTime, t.allocBytes = time.Since(t1), heapAllocs()-a1
	return t
}

// alignStage aligns the pair's pre-interned sequences under the gate:
// stage 2 threads the bound-derived score floor through the DP (which
// aborts with ErrBelowBound the moment the optimum provably falls
// short) and stage 3 re-checks the refined bound — the fixed terms
// plus the actual matched bytes of the computed alignment, less what
// that alignment forces the generator to add — before any codegen. The
// alignment goes into ares (nil: a fresh Result), which is returned. A nil return means the
// trial is settled (skipped or erred) and must not materialize.
func (t *trial) alignStage(ctx context.Context, sa, sb align.Seq, opts core.Options, cfg Config, g trialGate, ares *align.Result) *align.Result {
	aopts := opts.Align
	// The score floor's byte arithmetic (ScoreNeeded) assumes the
	// default 2/1/0 scoring; every funnel-eligible configuration uses
	// it, but guard anyway so an exotic option set degrades to an
	// unbounded DP instead of a wrong floor. A lazy bound with unknown
	// slack terms cannot arm the floor either — its Fixed sits below
	// the admissible value, which would raise the floor past soundness
	// — so the DP just runs unbounded for those pairs.
	if g.on && g.bd.Exact && aopts.InstrMatchScore == 2 && aopts.LabelMatchScore == 1 && aopts.GapPenalty == 0 {
		aopts.MinScore = g.bd.ScoreNeeded(g.gate)
	}
	if ares == nil {
		ares = new(align.Result)
	}
	t0 := time.Now()
	err := align.AlignSeqsInto(ctx, sa, sb, aopts, ares)
	t.alignTime = time.Since(t0)
	if err != nil {
		if err == align.ErrBelowBound {
			t.skipped, t.dpAborted = true, true
			t.bound = g.gate
			return nil
		}
		t.err = err
		return nil
	}
	t.matrixBytes = ares.MatrixBytes
	if !g.on {
		return ares
	}
	s0 := time.Now()
	mpb := costmodel.MatchedPairBytes(ares.Pairs, cfg.Target)
	refined := g.bd.Fixed + mpb
	if refined <= g.gate && !g.bd.Exact {
		// A lazy Fixed underestimates; settle the slack terms and
		// re-check before ruling the trial out. Survivors never pay
		// for slack here — only pairs about to be skipped do.
		refined = costmodel.Bound(g.p1, g.p2, cfg.Target).Fixed + mpb
	}
	if refined > g.gate {
		// Count what the alignment forces first; the two clean-up runs
		// that decide whether the count is a proof are only paid for when
		// it would settle the trial. Irreducible functions have no slack,
		// so a lazy Fixed is exact whenever the cut applies.
		if cut := costmodel.ForcedCut(g.p1, g.p2, ares.Pairs, opts, cfg.Target); refined-cut <= g.gate &&
			g.p1.Irreducible() && g.p2.Irreducible() {
			refined -= cut
		}
	}
	t.screenTime = time.Since(s0)
	if refined <= g.gate {
		t.skipped = true
		t.bound = refined
		return nil
	}
	return ares
}

// codegen generates the merged function named name in dst from a
// settled alignment, filling the trial's stats and profit. The caller
// owns the codegen timing (clone and remap cost belongs to it too).
func (t *trial) codegen(ctx context.Context, dst *ir.Module, a, b *ir.Function, name string, ares *align.Result, preSize map[*ir.Function]int, opts core.Options, cfg Config) {
	merged, stats, err := core.MergeAlignedCtx(ctx, dst, a, b, name, ares, opts)
	if err != nil {
		t.err = err
		return
	}
	// The merged function is cleaned before the cost model sees it; for
	// FMSA this is where register promotion tries (and partially fails)
	// to undo the demotion inside the merged body.
	s0 := time.Now()
	if cfg.Algorithm == FMSA {
		transform.Mem2Reg(merged)
	}
	transform.Simplify(merged)
	t.simplifyTime = time.Since(s0)
	t.merged = merged
	t.stats = *stats
	// The originals become thunks, so the profit is exactly what the
	// commit takes off ModuleBytes.
	after := costmodel.FuncBytes(merged, cfg.Target) +
		2*costmodel.ThunkBytes(cfg.Target, len(merged.Params()))
	t.profit = preSize[t.f1] + preSize[t.f2] - after
}

// remapPairs rewrites an alignment computed over the originals' cached
// sequences onto the clones' sequences, in place. A global alignment
// visits every entry of both sides exactly once, in order, so the
// remap is two running cursors; the trailing assertion (together with
// CloneSeq's length check) guarantees the clone sequences describe the
// same linearization the DP saw.
func remapPairs(pairs []align.Pair, sa, sb align.Seq) {
	i, j := 0, 0
	for k := range pairs {
		if pairs[k].A != nil {
			pairs[k].A = &sa.Entries[i]
			i++
		}
		if pairs[k].B != nil {
			pairs[k].B = &sb.Entries[j]
			j++
		}
	}
	if i != len(sa.Entries) || j != len(sb.Entries) {
		panic("driver: alignment does not cover the cloned sequences")
	}
}

// adopt moves a trial's merged function out of its scratch module into m
// under a collision-free name; the emptied scratch module returns to
// the trial pool.
func adopt(m *ir.Module, t *trial) {
	t.scratch.RemoveFunc(t.merged)
	t.merged.SetName(MergedName(m, t.f1, t.f2))
	m.AddFunc(t.merged)
	putScratch(t.scratch)
	t.scratch = nil
}

// commit replaces both originals with thunks into the merged function.
func commit(f1, f2, merged *ir.Function) {
	plan, err := core.PlanParams(f1, f2)
	if err != nil {
		panic(fmt.Sprintf("driver: committed merge has invalid plan: %v", err))
	}
	core.BuildThunk(f1, merged, 0, plan.Maps[0], plan)
	core.BuildThunk(f2, merged, 1, plan.Maps[1], plan)
}

func mergedBaseName(f1, f2 *ir.Function) string {
	return fmt.Sprintf("merged.%s.%s", f1.Name(), f2.Name())
}

// MergedName returns the collision-free name for merging f1 and f2 into
// m: the base "merged.<f1>.<f2>" scheme with a numeric suffix when
// taken. The facade's MergePair shares it so pair merges and
// whole-module runs never diverge on naming.
func MergedName(m *ir.Module, f1, f2 *ir.Function) string {
	base := mergedBaseName(f1, f2)
	name := base
	for i := 1; m.FuncByName(name) != nil; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	return name
}
