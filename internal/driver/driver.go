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
//   - the greedy loop (runner.go): a fold step that makes every
//     profitable duplicate a forwarder, then for each function in
//     ranking order one row-step — screen, align and trial-merge its top-t partners,
//     keep the most profitable — and, for a profitable row, one
//     commit-step that keeps the merged function, replaces the originals
//     with thunks and updates the indexes. Session.Plan runs the same
//     loop dry — every trial built in place and discarded, the module
//     coming back as found — returning a serializable Plan that
//     Session.Apply can commit later. The loop runs on the caller's
//     goroutine.
//
// Everything polls a context.Context, so a run can be cancelled mid-way;
// committed merges are never rolled back, and the module remains valid.
package driver

import (
	"context"
	"fmt"
	"runtime/metrics"
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
// was committed or, during a dry Session.Plan run, proposed.
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
	// Progress, when non-nil, observes pipeline events. Calls within one
	// run all come from the goroutine running the loop. Events are
	// emitted while the run holds its session's lock: the callback must
	// not call back into the Session (Update/Remove/Plan/...), or it
	// deadlocks.
	Progress func(Progress)
}

// MergeRecord describes one committed (or, in a dry run, proposed)
// profitable merge. A non-empty Family marks a flattening: the named
// originals (in fid order) were re-merged into one k-ary body and their
// thunks rewritten, replacing the previous merged head(s). Profit is
// exactly the commit's change to costmodel.ModuleBytes (for a proposal,
// what the commit would take off).
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
	// Folds lists the duplicate folds performed before alignment, in
	// fold order.
	Folds []FoldRecord
	// Counters is what the run's rows and commits cost.
	Counters
	// Families counts the merge families alive after the run,
	// FamilySizes is their size histogram (member count -> families) and
	// FamilyBytes what the frozen records of their originals hold
	// (ir.Frozen.Bytes); all are zero unless Config.MaxFamily enables
	// family tracking. Flattened counts the commits of this run that
	// replaced a family head with a re-merged k-ary body instead of
	// nesting.
	Families    int
	FamilySizes map[int]int
	FamilyBytes int
	Flattened   int
	// Search reports the candidate finder's query accounting.
	Search search.Stats
	// AlignCache reports the run's sequence requests: every hit is a
	// candidate pair trial or screen that found a function's sequence in
	// its record instead of re-linearizing and re-interning it.
	AlignCache CacheStats
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
	// Planning-funnel accounting (the first and third zero under FMSA,
	// which plans every pair in full). PairsScreened counts candidate
	// pairs the stage-1 profit upper bound excluded before any DP; of
	// the trials whose alignment completed, TrialsBuilt materialized a
	// merged body while TrialsSkipped were rejected by the stage-3
	// refined bound without any codegen. Screened and skipped pairs both
	// stay counted in Attempts.
	PairsScreened, TrialsBuilt, TrialsSkipped int
	// DPAborted is always 0. It counted alignments a score floor derived
	// from the profit bound rejected before their backtrack; the DP now
	// always runs to the end and stage 3 skips every pair that floor
	// rejected. The field stays because the benchmark in bench/ reads it.
	DPAborted int
	// AlignTime and CodegenTime accumulate the two core phases
	// (Figure 23). CodegenTime is the sum of BuildTime, RepairTime and
	// SimplifyTime: SSA repair inside the generator
	// (core.Stats.RepairTime), the clean-up of the finished body
	// (transform.Simplify), and the rest of building a trial — the
	// generator up to repair, pricing, for a flatten its progressive
	// alignment, and disposing of the body once the run does not commit
	// it (ir.Release).
	// ScreenTime accumulates the planning funnel's bound computations —
	// the stage-1 screen and the stage-3 refinement after each
	// alignment, lazily-filled slack terms included — and, under family
	// tracking, the check whether a pair flattens; CommitTime is the
	// wall clock of duplicate folding and the commit-steps — thunk
	// building, index retirement, plan records.
	// TouchTime is the part of ScreenTime spent on first touches: the
	// one walk per function that builds the sequence, class vector,
	// numbering and profile a screen reads (records.touch). A run that
	// never screens (FMSA) or an Apply replay touches its functions as it
	// aligns them, on no clock and not counted here.
	// FoldTime is the part of CommitTime spent in the fold step (finding
	// duplicate families and folding them); an Apply replays its plan's
	// folds outside it.
	AlignTime, CodegenTime              time.Duration
	BuildTime, RepairTime, SimplifyTime time.Duration
	ScreenTime, CommitTime, TouchTime   time.Duration
	FoldTime                            time.Duration
	// FoldHashed counts the candidates the fold step hashed: those that
	// share a fingerprint with another listed candidate, and forwarding
	// bodies whose size another forwarding candidate has.
	FoldHashed int
	// PeakMatrixBytes is the largest alignment matrix (Figure 22's
	// peak-memory proxy); SumMatrixBytes accumulates all matrices.
	PeakMatrixBytes, SumMatrixBytes int64
	// AllocBytes is what the run allocated on the heap and GCTime the
	// CPU time the collector spent meanwhile. TrialAllocBytes sums what
	// was allocated while each trial's body was built and priced, and
	// DiscardedTrialAllocBytes the part of that spent on trials the run
	// threw away — every trial of a dry run. All four are deltas of
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
	c.TouchTime += d.TouchTime
	c.FoldTime += d.FoldTime
	c.FoldHashed += d.FoldHashed
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
// facade's MergeFamily shares it so hand-picked merges and whole-module
// runs never diverge on generator knobs.
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
// function, built in place in the module, its stats and profit, plus
// the phase accounting its row folds into the Result. Committing and
// dry runs build alike; a trial the run does not commit is discarded
// (runner.discard), which leaves the module as the trial found it.
type trial struct {
	f1, f2 *ir.Function
	merged *ir.Function
	stats  core.Stats
	profit int
	err    error
	// mp is the member plan the merged function was built from and its
	// commit applies: a pair's own (pairPlan) or a flatten's
	// (flattenFor). A pair trial settled before codegen has none.
	mp *memberPlan

	// skipped marks a stage-3 funnel rejection: the trial was never
	// materialized because its profit provably cannot exceed the gate
	// it was planned under. bound carries the refined post-alignment
	// bound that proved it — the consumer memoizes the pair only when
	// bound <= 0, exactly when a full trial would have been
	// unprofitable.
	skipped bool
	bound   int

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
	case t.skipped:
		c.TrialsSkipped = 1
	default:
		c.TrialsBuilt = 1
	}
	return c
}

// trialGate is the funnel verdict a trial is planned under: the stage-1
// pair bound and the profit gate (the best profit seen so far in the
// row, or 0) that stage 3 prunes against. The profiles ride along
// so stage 3 can settle a lazy bound's slack terms (costmodel.Bound)
// when — and only when — it is about to rule the trial out. The zero
// value (off) plans the trial unconditionally — FMSA, Apply replays and
// family flatten trials always use it.
type trialGate struct {
	on     bool
	bd     costmodel.PairBound
	gate   int
	p1, p2 *costmodel.FuncProfile
	// cut is the runner's stage-3 scratch (nil: the cut allocates its
	// own).
	cut *core.CutScratch
}

var noGate = trialGate{}

// planTrial builds one trial in place in m. With mp nil it is the pair
// trial of f1 and f2: aligned on their records' sequences in buf, which
// it is done with once planTrial returns, under the funnel gate g; only
// a pair that stage 3 lets through gets its member plan (pairPlan), so a
// skipped trial costs no plan and no name. Otherwise mp is the flatten
// flattenFor planned for the pair, whose sources the generator aligns
// itself. Either way the merged function is named by freshName from
// "merged.<member>..." against m and the names a dry run has claimed
// (nil: none), cleaned, and priced by the one rule: what the live
// members and consumed heads weigh now, less the body and one thunk per
// member. The generator writes nothing of the sources: it copies their
// instructions without operands (ir.CloneShape) and sets each operand
// once, to a value of the merged body, so no source's use list or stamp
// moves, and discarding the merged function (runner.discard) leaves the
// module as it was. Only the goroutine running the loop may call it.
func planTrial(ctx context.Context, m *ir.Module, recs *records, mp *memberPlan, f1, f2 *ir.Function, claimed map[string]bool, cfg Config, g trialGate, buf *align.Result) *trial {
	t := new(trial)
	t.plan(ctx, m, recs, mp, f1, f2, claimed, cfg, g, buf)
	return t
}

// plan is planTrial into t, which the caller owns: a row plans in a
// trial of its own and copies out only the one it keeps, so a trial
// that stage 3 settles leaves nothing allocated behind.
func (t *trial) plan(ctx context.Context, m *ir.Module, recs *records, mp *memberPlan, f1, f2 *ir.Function, claimed map[string]bool, cfg Config, g trialGate, buf *align.Result) {
	*t = trial{f1: f1, f2: f2}
	opts := cfg.CoreOptions()
	if mp == nil {
		defer buf.Clear()
		if t.alignStage(ctx, recs.seqOf(recs.of[f1]), recs.seqOf(recs.of[f2]), opts, cfg, g, buf) == nil {
			return
		}
	}
	t0, a0 := time.Now(), heapAllocs()
	defer func() { t.codegenTime, t.allocBytes = time.Since(t0), heapAllocs()-a0 }()
	var merged *ir.Function
	var stats *core.Stats
	var err error
	if mp == nil {
		if mp, err = pairPlan(f1, f2); err == nil {
			merged, stats, err = core.MergePairWithPlanCtx(ctx, m, mp.srcs, freshName(m, familyBaseName(mp.names), claimed), buf, mp.pplan, opts)
		}
	} else {
		merged, stats, err = core.MergeFamilyWithPlanCtx(ctx, m, mp.srcs, freshName(m, familyBaseName(mp.names), claimed), mp.pplan, opts)
	}
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
	t.merged, t.mp = merged, mp
	t.stats, t.matrixBytes = *stats, stats.MatrixBytes
	// The members become thunks and the heads leave, so the profit is
	// exactly what the commit takes off ModuleBytes.
	before := 0
	for i := range mp.names {
		before += recs.sizeOf(mp.member(m, i))
	}
	for _, h := range mp.heads {
		before += recs.sizeOf(h)
	}
	t.profit = before - costmodel.FuncBytes(merged, cfg.Target) -
		len(mp.srcs)*costmodel.ThunkBytes(cfg.Target, len(merged.Params()))
}

// alignStage aligns the pair's pre-interned sequences and, under a
// gate, runs stage 3: it re-checks the refined bound — the fixed terms
// plus the actual matched bytes of the computed alignment, less what
// that alignment forces the generator to add — before any codegen. The
// alignment goes into ares, which is returned. A nil return means the
// trial is settled (skipped or erred) and must not materialize.
func (t *trial) alignStage(ctx context.Context, sa, sb align.Seq, opts core.Options, cfg Config, g trialGate, ares *align.Result) *align.Result {
	t0 := time.Now()
	err := align.AlignSeqsInto(ctx, sa, sb, opts.Align, ares)
	t.alignTime = time.Since(t0)
	if err != nil {
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
		if cut := costmodel.ForcedCut(g.p1, g.p2, ares.Pairs, cfg.Target, g.cut); refined-cut <= g.gate &&
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

// freshName returns base, or base with the first numeric suffix, that
// names no function in m and is not in claimed (a dry run's proposals;
// nil for none). Every merged function the driver builds is named here.
func freshName(m *ir.Module, base string, claimed map[string]bool) string {
	name := base
	for i := 1; m.FuncByName(name) != nil || claimed[name]; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	return name
}
