// Package search supplies merge candidates to the driver: given the
// module's defined functions, which pairs are worth aligning? Index is
// the one Finder. It ranks candidates the way the paper's §5.1 does —
// by fingerprint distance, ties by name — from a dense index: one cell
// per distinct fingerprint, listed in a packed slab sorted by size and
// walked outward from the query's cell, pruned by two admissible lower
// bounds on the fingerprint distance (size difference, then a packed
// 8-lane projection taken in one SWAR step). A visit scores a cell once
// for all its members. Queries return the exact top-t while scoring a
// fraction of the module; candidate discovery stops being the O(n²)
// bottleneck.
//
// The package also provides stable structural hashing (HashFunction) and
// duplicate detection (Families, EqualFunctions, BuildForwarder): exact
// clones are folded into forwarding thunks before any alignment runs, so
// identical-function families cost zero DP cells.
package search

import (
	"time"

	"repro/internal/ir"
)

// Finder answers candidate queries over a set of functions. The driver
// consumes one Finder per run for both the planning and the commit
// stage. Implementations are safe for concurrent use (reads may run
// concurrently; writes are serialized against them). Index is the
// package's one implementation; the tests hold it to a naive one.
type Finder interface {
	// Order returns the indexed functions sorted largest-first (the
	// order in which merging is attempted, paper §5.5).
	Order() []*ir.Function
	// Candidates returns up to t candidate partners for f, most
	// promising first. f itself and removed functions are never
	// returned.
	Candidates(f *ir.Function, t int) []*ir.Function
	// Add (re-)indexes f as a candidate.
	Add(f *ir.Function)
	// AddBatch (re-)indexes fs in one pass, with the result of calling
	// Add on each function in order. The driver's batched session deltas
	// (Session.UpdateBatch) use it.
	AddBatch(fs []*ir.Function)
	// Remove drops f from future candidate lists (it was merged away).
	Remove(f *ir.Function)
	// Stats returns the accumulated query accounting.
	Stats() Stats
}

// Stats accounts for the work a Finder did. The driver folds it into the
// run report; cmd/fmerge -v prints it.
type Stats struct {
	// Queries counts Candidates calls.
	Queries int
	// Scanned counts candidate fingerprints distance-scored across all
	// queries. The index scores a cell — one distinct fingerprint,
	// however many functions share it — and only when its lower bounds
	// could not reject it.
	Scanned int
	// Probed counts the index entries the queries visited, of which
	// Scanned were distance-scored: Probed - Scanned is the pruning the
	// projection bound did. An entry is a cell other than the query's
	// own, so the size bound pruned the live cells times Queries less
	// Probed.
	Probed int
	// QueryTime accumulates wall-clock time spent inside Candidates.
	QueryTime time.Duration
	// Indexed is the number of functions currently indexed.
	Indexed int
	// Built counts fingerprint computations the finder performed —
	// construction plus every re-Add.
	Built int
}

// AvgScanned returns the mean number of candidates scored per query.
func (s Stats) AvgScanned() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Queries)
}

// Kind names a finder. Both kinds build the Index: the two names are
// the values the public option (repro.WithFinder) and the daemon's wire
// field accept, kept so callers written against them still work.
type Kind int

// The finder names.
const (
	// KindExact names the paper's §5.1 fingerprint ranking; it builds
	// the Index, whose lists are that ranking's.
	KindExact Kind = iota
	// KindLSH names the Index itself.
	KindLSH
)

// String returns the kind's wire name.
func (k Kind) String() string {
	if k == KindLSH {
		return "lsh"
	}
	return "exact"
}

// New builds the Finder over funcs (declarations are ignored). Every
// kind builds the Index.
func New(_ Kind, funcs []*ir.Function) Finder {
	return newIndex(funcs)
}
