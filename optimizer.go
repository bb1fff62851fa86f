package repro

import (
	"context"
	"fmt"
	"sync"

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
	algorithm Algorithm
	threshold int
	target    Target
	maxCells  int64
	minInstrs int
	skipHot   map[string]bool
	finder    FinderKind
	maxFamily int
	progress  func(Progress)
}

// Option configures an Optimizer under construction; see New.
type Option func(*Optimizer) error

// New builds an Optimizer from the given options. Without options the
// defaults match the paper's main configuration: SalSSA, exploration
// threshold 1, the x86-64 size model, quadratic alignment, no size or
// memory limits. Every run folds structurally identical functions into
// forwarders before any alignment runs (see FoldRecord).
func New(opts ...Option) (*Optimizer, error) {
	o := &Optimizer{
		algorithm: SalSSA,
		threshold: 1,
		target:    X86_64,
		finder:    LSHFinder,
		maxFamily: 4,
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

// WithMaxCells caps alignment DP matrices at n cells; pairs needing more
// are skipped rather than aligned (default 0 = unlimited). It is the one
// guard against a giant pair: the screen turns most unrelated pairs away
// before any DP, but a giant pair that clears it still costs its whole
// matrix, a bit per expanded cell.
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

// WithParallelism is accepted and ignored; n < 0 is still an error. The
// paper's greedy loop is serial — each commit reshapes every later
// candidate list — and every run executes it on the caller's goroutine.
// Run independent modules (or daemon sessions) side by side instead: an
// Optimizer may be shared by any number of goroutines.
func WithParallelism(n int) Option {
	return func(o *Optimizer) error {
		if n < 0 {
			return fmt.Errorf("repro: parallelism must be >= 0, got %d", n)
		}
		return nil
	}
}

// WithFinder names the candidate finder (default LSHFinder). Both names
// select the one finder, a dense fingerprint index whose lists are the
// paper's §5.1 ranking, so the option changes nothing but what Finder
// reports; it stays so callers written against it keep compiling. An
// unknown kind is still an error.
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
// behaviour. k = 2 disables flattening (and the frozen records of
// original bodies that power it): every merge stays pairwise.
func WithMaxFamily(k int) Option {
	return func(o *Optimizer) error {
		if k < 2 {
			return fmt.Errorf("repro: max family must be >= 2, got %d", k)
		}
		o.maxFamily = k
		return nil
	}
}

// WithDupFold is accepted and ignored: every run folds duplicates,
// whatever on says. Exact clone families — equal up to local value
// names, detected by a stable structural hash — are deduplicated before
// any alignment runs: each profitable duplicate becomes
// "return representative(args...)" and leaves the candidate set, so no
// alignment DP cells are spent on them. The Report lists the folds.
func WithDupFold(on bool) Option {
	return func(*Optimizer) error { return nil }
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

// Finder returns the finder name set by WithFinder (default LSHFinder).
func (o *Optimizer) Finder() FinderKind { return o.finder }

// MaxFamily returns the configured merge-family bound.
func (o *Optimizer) MaxFamily() int { return o.maxFamily }

// config derives the driver configuration. The skip-hot map is shared,
// not copied: the driver only reads it, and the Optimizer is immutable
// after New.
func (o *Optimizer) config() driver.Config {
	return driver.Config{
		Algorithm: o.algorithm,
		Threshold: o.threshold,
		Target:    o.target,
		MaxCells:  o.maxCells,
		SkipHot:   o.skipHot,
		MinInstrs: o.minInstrs,
		MaxFamily: o.maxFamily,
		Progress:  o.progress,
	}
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
// It is MergeFamily of two.
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
	return o.MergeFamily(ctx, m, name1, name2)
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
