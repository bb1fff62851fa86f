package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/transform"
)

// Progress is one observable pipeline event of an Optimize run; see
// WithProgress.
type Progress = driver.Progress

// Stage identifies the pipeline stage a Progress event reports on.
type Stage = driver.Stage

// Pipeline stages.
const (
	// StageCommit is the commit-step of the greedy loop — thunk creation
	// and ranking updates for a profitable merge — and the only stage
	// that reports.
	StageCommit = driver.StageCommit
)

// Optimizer runs whole-module function merging. It is configured once
// with functional options (see New) and is then immutable: a single
// Optimizer may be reused for any number of modules, from any number of
// goroutines concurrently (each call works only on its own module).
type Optimizer struct {
	algorithm   Algorithm
	threshold   int
	target      Target
	linearAlign bool
	maxCells    int64
	minInstrs   int
	skipHot     map[string]bool
	parallelism int
	finder      FinderKind
	dupFold     bool
	canon       bool
	maxFamily   int
	progress    func(Progress)
}

// Option configures an Optimizer under construction; see New.
type Option func(*Optimizer) error

// New builds an Optimizer from the given options. Without options the
// defaults match the paper's main configuration: SalSSA, exploration
// threshold 1, the x86-64 size model, quadratic alignment, no size or
// memory limits, the serial loop, the exact candidate finder, no
// duplicate folding.
func New(opts ...Option) (*Optimizer, error) {
	o := &Optimizer{
		algorithm:   SalSSA,
		threshold:   1,
		target:      X86_64,
		parallelism: 1,
		maxFamily:   4,
	}
	for _, opt := range opts {
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	// The serialization WithProgress promises must span concurrent
	// Optimize calls sharing this Optimizer, so the mutex lives here,
	// not per run.
	if o.progress != nil {
		inner := o.progress
		var mu sync.Mutex
		o.progress = func(ev Progress) {
			mu.Lock()
			defer mu.Unlock()
			inner(ev)
		}
	}
	return o, nil
}

// WithAlgorithm selects the merging technique (default SalSSA).
func WithAlgorithm(a Algorithm) Option {
	return func(o *Optimizer) error {
		switch a {
		case SalSSA, SalSSANoPC, FMSA:
			o.algorithm = a
			return nil
		default:
			return fmt.Errorf("repro: unknown algorithm %d", int(a))
		}
	}
}

// WithThreshold sets the exploration threshold t: how many ranked
// candidate partners are tried per function (default 1; the paper
// evaluates 1, 5 and 10).
func WithThreshold(t int) Option {
	return func(o *Optimizer) error {
		if t < 1 {
			return fmt.Errorf("repro: threshold must be >= 1, got %d", t)
		}
		o.threshold = t
		return nil
	}
}

// WithTarget selects the object-size model (default X86_64).
func WithTarget(t Target) Option {
	return func(o *Optimizer) error {
		switch t {
		case X86_64, Thumb:
			o.target = t
			return nil
		default:
			return fmt.Errorf("repro: unknown target %d", int(t))
		}
	}
}

// WithLinearAlign switches alignment to Hirschberg's linear-space
// algorithm: the same optimal score in O(n+m) memory for roughly twice
// the time (default off, matching the paper's quadratic DP).
func WithLinearAlign(on bool) Option {
	return func(o *Optimizer) error {
		o.linearAlign = on
		return nil
	}
}

// WithMaxCells caps alignment DP matrices at n cells; pairs needing more
// are skipped rather than aligned (default 0 = unlimited).
func WithMaxCells(n int64) Option {
	return func(o *Optimizer) error {
		if n < 0 {
			return fmt.Errorf("repro: max cells must be >= 0, got %d", n)
		}
		o.maxCells = n
		return nil
	}
}

// WithMinInstrs skips functions smaller than n instructions (default 0 =
// consider every defined function).
func WithMinInstrs(n int) Option {
	return func(o *Optimizer) error {
		if n < 0 {
			return fmt.Errorf("repro: min instrs must be >= 0, got %d", n)
		}
		o.minInstrs = n
		return nil
	}
}

// WithSkipHot excludes the named functions from merging — the paper's
// §5.7 remedy for runtime overhead on hot code paths. Multiple uses
// accumulate.
func WithSkipHot(names ...string) Option {
	return func(o *Optimizer) error {
		if o.skipHot == nil {
			o.skipHot = map[string]bool{}
		}
		for _, n := range names {
			if n == "" {
				return fmt.Errorf("repro: empty function name in skip-hot list")
			}
			o.skipHot[n] = true
		}
		return nil
	}
}

// WithParallelism runs the greedy loop's rows on up to n workers: the
// candidate graph is partitioned into connected components of candidate
// edges, each component's rows are captured on a worker with dry-run
// overlays, and the (serial) loop uses a captured row only after proving
// its candidate list is what the loop sees at that turn, re-running the
// row otherwise. Module text, report records and plans are bit-identical
// to a serial run at any value and under every other option; a module
// with fewer than two components runs the serial loop whatever n says.
// Measured on two cores, two workers do not beat one (DESIGN.md "Scale
// architecture"); the option exists for machines with more. n = 0
// selects runtime.NumCPU(); n = 1 is the serial loop (default).
func WithParallelism(n int) Option {
	return func(o *Optimizer) error {
		if n < 0 {
			return fmt.Errorf("repro: parallelism must be >= 0, got %d", n)
		}
		if n == 0 {
			n = runtime.NumCPU()
		}
		o.parallelism = n
		return nil
	}
}

// WithFinder selects the candidate-search implementation (default
// ExactFinder). ExactFinder reproduces the paper's brute-force
// fingerprint ranking with an O(n) scan per query; LSHFinder (the name
// is historical: it is the indexed exact finder and no longer sketches)
// answers the same queries from a dense index walked outward in size
// order, scoring only the candidates that neither a size-difference nor
// a projected-fingerprint lower bound can exclude — the same top-t
// lists, a fraction of the work on large modules.
func WithFinder(k FinderKind) Option {
	return func(o *Optimizer) error {
		switch k {
		case ExactFinder, LSHFinder:
			o.finder = k
			return nil
		default:
			return fmt.Errorf("repro: unknown finder %d", int(k))
		}
	}
}

// WithMaxFamily bounds merge families at k members (default 4). A
// session that re-optimizes an evolving module grows families instead
// of nesting chains: when a merged function finds another profitable
// partner, the family's original bodies plus the newcomer are
// re-merged into one fresh k-ary body behind an integer function
// identifier and every member thunk is rewritten to target it — one
// call hop and one dispatch layer no matter how often the family grew.
// Beyond k members further partners nest pairwise, the historical
// behaviour. k = 2 disables flattening (and the retention of original
// bodies that powers it): every merge stays pairwise.
func WithMaxFamily(k int) Option {
	return func(o *Optimizer) error {
		if k < 2 {
			return fmt.Errorf("repro: max family must be >= 2, got %d", k)
		}
		o.maxFamily = k
		return nil
	}
}

// WithDupFold folds structurally identical functions into forwarding
// thunks before any alignment runs (default off). Exact clone families
// — equal up to local value names, detected by a stable GVN-style
// structural hash — are deduplicated for free: each duplicate becomes
// "return representative(args...)" and leaves the candidate set, so no
// alignment DP cells are spent on them. The Report lists the folds.
func WithDupFold(on bool) Option {
	return func(o *Optimizer) error {
		o.dupFold = on
		return nil
	}
}

// WithCanon indexes every function through a private *canonical view*
// (default off): a clone normalized by register promotion, CFG
// simplification, constant folding, operand-order normalization and
// global value numbering. Candidate search — fingerprints, sketches,
// duplicate-fold hashes — then sees through reducible noise between
// near-clones (redundant memory traffic, unfolded constants, commuted
// operands, spurious blocks), and duplicate folding (WithDupFold) widens
// from syntactic identity to canonical congruence, with each
// non-syntactic fold verified by an interpreter differential before it
// commits. Merges and folds still rewrite the original bodies; views
// never appear in the module. With canon off the pipeline is
// bit-for-bit the historical one. FMSA runs ignore the option.
func WithCanon(on bool) Option {
	return func(o *Optimizer) error {
		o.canon = on
		return nil
	}
}

// WithProgress installs an observer for pipeline events: one per
// profitable merge a run records. Calls are serialized, even across
// concurrent Optimize calls sharing the Optimizer. A nil fn disables
// observation.
//
// Concurrent runs sharing one Optimizer (or one Session) interleave
// their events at the callback; Progress.RunID — fresh and monotonic
// per Optimize/Plan/Apply call — attributes each event to its run.
// Events are emitted while the run holds its Session's internal lock,
// so fn must not call back into a Session — it would deadlock.
func WithProgress(fn func(Progress)) Option {
	return func(o *Optimizer) error {
		o.progress = fn
		return nil
	}
}

// Algorithm returns the configured merging technique.
func (o *Optimizer) Algorithm() Algorithm { return o.algorithm }

// Threshold returns the configured exploration threshold.
func (o *Optimizer) Threshold() int { return o.threshold }

// Target returns the configured size-model target.
func (o *Optimizer) Target() Target { return o.target }

// Parallelism returns the configured worker count.
func (o *Optimizer) Parallelism() int { return o.parallelism }

// Finder returns the configured candidate-search implementation.
func (o *Optimizer) Finder() FinderKind { return o.finder }

// DupFold reports whether duplicate folding is enabled.
func (o *Optimizer) DupFold() bool { return o.dupFold }

// Canon reports whether canonical-view indexing is enabled.
func (o *Optimizer) Canon() bool { return o.canon }

// MaxFamily returns the configured merge-family bound.
func (o *Optimizer) MaxFamily() int { return o.maxFamily }

// config derives the driver configuration. The skip-hot map is shared,
// not copied: the driver only reads it, and the Optimizer is immutable
// after New.
func (o *Optimizer) config() driver.Config {
	cfg := driver.Config{
		Algorithm:   o.algorithm,
		Threshold:   o.threshold,
		Target:      o.target,
		MaxCells:    o.maxCells,
		LinearAlign: o.linearAlign,
		SkipHot:     o.skipHot,
		MinInstrs:   o.minInstrs,
		Finder:      o.finder,
		DupFold:     o.dupFold,
		MaxFamily:   o.maxFamily,
		Parallelism: o.parallelism,
		Progress:    o.progress,
	}
	if o.canon {
		cfg.Canon = canon.Default()
	}
	return cfg
}

// Optimize runs function merging over m in place and returns the report
// (committed merges, size reduction, phase timings). It is a one-shot
// session — Open, one Session.Optimize, Close — so its committed merge
// set is exactly the Session path's; callers that re-optimize an
// evolving module should hold a Session open instead and pay only for
// the delta.
//
// The context cancels the run between (and inside) merge trials: on
// cancellation Optimize stops early, leaves every already-committed
// merge in place — the module still verifies — and returns the partial
// report together with ctx.Err().
func (o *Optimizer) Optimize(ctx context.Context, m *Module) (*Report, error) {
	if m == nil {
		return nil, fmt.Errorf("repro: Optimize on nil module")
	}
	return driver.RunContext(ctx, m, o.config())
}

// MergePair merges the two named functions of m unconditionally (no
// profitability check) and replaces the originals with forwarding
// thunks. It returns the merged function and the generator statistics.
//
// The SalSSA generator variants are supported; an FMSA-configured
// Optimizer returns an error because FMSA merges require whole-module
// register demotion (use Optimize instead).
func (o *Optimizer) MergePair(ctx context.Context, m *Module, name1, name2 string) (*Function, *MergeStats, error) {
	if o.algorithm == FMSA {
		return nil, nil, fmt.Errorf("repro: MergePair supports the SalSSA variants only; use Optimize for FMSA")
	}
	if name1 == name2 {
		return nil, nil, fmt.Errorf("repro: cannot merge function %q with itself", name1)
	}
	f1, f2 := m.FuncByName(name1), m.FuncByName(name2)
	if f1 == nil || f2 == nil {
		return nil, nil, fmt.Errorf("repro: function %q or %q not found", name1, name2)
	}
	plan, err := core.PlanParams(f1, f2)
	if err != nil {
		return nil, nil, err
	}
	// The plan is shared between the generator and the thunks below, so
	// parameter unification runs once per pair.
	merged, stats, err := core.MergeWithPlanCtx(ctx, m, f1, f2, driver.MergedName(m, f1, f2), plan, o.config().CoreOptions())
	if err != nil {
		return nil, nil, err
	}
	transform.Simplify(merged)
	core.BuildThunk(f1, merged, 0, plan.Maps[0], plan)
	core.BuildThunk(f2, merged, 1, plan.Maps[1], plan)
	return merged, stats, nil
}

// MergeFamily merges the k named functions of m unconditionally (no
// profitability check) into one k-ary body behind a function identifier
// and replaces every original with a forwarding thunk. Two names are
// exactly MergePair (i1 identifier); beyond two the members are aligned
// progressively against the growing merged skeleton and dispatched on
// an i32 identifier. It returns the merged function and the generator
// statistics.
//
// The SalSSA generator variants are supported; an FMSA-configured
// Optimizer returns an error because FMSA merges require whole-module
// register demotion (use Optimize instead).
func (o *Optimizer) MergeFamily(ctx context.Context, m *Module, names ...string) (*Function, *MergeStats, error) {
	if o.algorithm == FMSA {
		return nil, nil, fmt.Errorf("repro: MergeFamily supports the SalSSA variants only; use Optimize for FMSA")
	}
	if len(names) < 2 {
		return nil, nil, fmt.Errorf("repro: MergeFamily needs at least two functions, got %d", len(names))
	}
	members := make([]*Function, len(names))
	seen := map[string]bool{}
	for i, name := range names {
		if seen[name] {
			return nil, nil, fmt.Errorf("repro: cannot merge function %q with itself", name)
		}
		seen[name] = true
		f := m.FuncByName(name)
		if f == nil {
			return nil, nil, fmt.Errorf("repro: function %q not found", name)
		}
		members[i] = f
	}
	plan, err := core.PlanParams(members...)
	if err != nil {
		return nil, nil, err
	}
	merged, stats, err := core.MergeFamilyWithPlanCtx(ctx, m, members, driver.MergedFamilyName(m, names), plan, o.config().CoreOptions())
	if err != nil {
		return nil, nil, err
	}
	transform.Simplify(merged)
	for i, f := range members {
		core.BuildThunk(f, merged, i, plan.Maps[i], plan)
	}
	return merged, stats, nil
}
