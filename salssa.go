// Package repro is SalSSA: function merging in the SSA form (Rocha,
// Petoumenos, Wang, Cole, Leather — "Effective Function Merging in the
// SSA Form", PLDI 2020), reimplemented as a self-contained Go library.
//
// The public surface centres on the Optimizer:
//
//   - ParseModule / FormatModule: the textual IR (an LLVM-like dialect);
//   - New + Option (WithAlgorithm, WithThreshold, WithTarget,
//     WithMaxCells, WithMinInstrs, WithSkipHot, WithFinder,
//     WithMaxFamily, WithProgress; WithParallelism and WithDupFold are
//     accepted and ignored): build a reusable, concurrency-safe
//     Optimizer;
//   - (*Optimizer).Optimize: the whole-module pipeline — candidate
//     ranking, the greedy merge loop under the profitability cost
//     model, thunk creation — with context cancellation;
//   - (*Optimizer).Open + Session: the long-lived engine — indexes built
//     once, maintained incrementally (Update/Remove) as the module
//     evolves, with a Plan/Apply split for dry runs and deferred,
//     filtered commits;
//   - (*Optimizer).MergePair / MergeFamily: merge one pair — or a k-ary
//     family behind an integer function identifier — unconditionally
//     and inspect the generator's statistics;
//   - EstimateSize: the per-target object-size model used to decide
//     profitability and to report reductions.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package repro

import (
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/search"
)

// Re-exported substrate types. The ir package is internal; these aliases
// are the supported public surface.
type (
	// Module is a translation unit of IR functions and globals.
	Module = ir.Module
	// Function is an IR function.
	Function = ir.Function
	// MergeStats reports what the SalSSA code generator did for a pair.
	MergeStats = core.Stats
	// Report is the outcome of a whole-module merging run.
	Report = driver.Result
	// MergeRecord describes one committed merge within a Report.
	MergeRecord = driver.MergeRecord
	// FoldRecord describes one duplicate fold within a Report: every
	// run folds structurally identical functions before alignment.
	FoldRecord = driver.FoldRecord
	// SearchStats reports the candidate finder's query accounting
	// within a Report.
	SearchStats = search.Stats
	// AlignCacheStats reports a run's sequence requests within a
	// Report: alignment trials reuse one interned sequence per function
	// instead of re-walking types per candidate pair.
	AlignCacheStats = driver.CacheStats
)

// Algorithm selects the merging technique.
type Algorithm = driver.Algorithm

// Supported merging algorithms.
const (
	// SalSSA is the paper's technique (phi-node support, dominance
	// repair, phi-node coalescing, xor-branch rewriting).
	SalSSA = driver.SalSSA
	// SalSSANoPC is SalSSA without phi-node coalescing.
	SalSSANoPC = driver.SalSSANoPC
	// FMSA is the CGO'19 baseline (register demotion + promotion).
	FMSA = driver.FMSA
)

// FinderKind names the candidate finder (see WithFinder).
type FinderKind = search.Kind

// Candidate finder names. Both select the one finder: a dense
// size-ordered fingerprint index pruned by two admissible lower bounds
// on the fingerprint distance, which answers each query with the exact
// top-t of the paper's §5.1 ranking from sub-linear work.
const (
	// ExactFinder names the paper's §5.1 fingerprint ranking.
	ExactFinder = search.KindExact
	// LSHFinder names the index that serves it (the default).
	LSHFinder = search.KindLSH
)

// Target selects the object-size model.
type Target = costmodel.Target

// Size-model targets.
const (
	// X86_64 models the paper's SPEC experiments.
	X86_64 = costmodel.X86_64
	// Thumb models the paper's MiBench experiments.
	Thumb = costmodel.Thumb
)

// ParseModule parses the textual IR dialect.
func ParseModule(src string) (*Module, error) { return irtext.Parse(src) }

// SpliceModule splices a textual IR fragment into a live module — the
// wire format for streaming module deltas to a long-lived Session. The
// fragment may add globals and functions and, unlike ParseModule,
// redefine the body of an existing function; redefinition preserves
// pointer identity, so call sites elsewhere in the module stay valid.
// The whole fragment is validated first: on error the module is
// untouched. It returns the names of the functions the fragment
// defined, which is exactly the list to pass to Session.Update.
func SpliceModule(m *Module, src string) ([]string, error) {
	return irtext.ParseInto(m, src)
}

// FormatModule renders a module in the textual IR dialect.
func FormatModule(m *Module) string { return m.String() }

// VerifyModule checks structural and SSA well-formedness of every
// function in m.
func VerifyModule(m *Module) error { return ir.VerifyModule(m) }

// EstimateSize returns the estimated object size of m in bytes for the
// target.
func EstimateSize(m *Module, target Target) int {
	return costmodel.ModuleBytes(m, target)
}
