// Package search supplies merge candidates to the driver: given the
// module's defined functions, which pairs are worth aligning? Two
// implementations sit behind the Finder interface:
//
//   - Exact wraps fingerprint.Ranking, scanning every live function per
//     query. Its candidate lists — and therefore the committed merge set —
//     are bit-identical to the original pipeline.
//   - LSH — a historical name; it no longer sketches — is the indexed
//     exact finder: one cell per distinct fingerprint, listed in a
//     packed slab sorted by size and walked outward from the query's
//     cell, pruned by two admissible lower bounds on the fingerprint
//     distance (size difference, then a packed 8-lane projection taken
//     in one SWAR step). A visit scores a cell once for all its members.
//     Queries return the exact top-t while scoring a fraction of the
//     module; candidate discovery stops being the O(n²) bottleneck.
//
// The package also provides stable structural hashing (HashFunction) and
// duplicate detection (Families, EqualFunctions, BuildForwarder): exact
// clones are folded into forwarding thunks before any alignment runs, so
// identical-function families cost zero DP cells.
package search

import (
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// Finder answers candidate queries over a set of functions. The driver
// consumes one Finder per run for both the planning and the commit
// stage. Implementations are safe for concurrent use (reads may run
// concurrently; writes are serialized against them).
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
	// Remove drops f from future candidate lists (it was merged away).
	Remove(f *ir.Function)
	// Fingerprint returns a copy of the fingerprint f is indexed with,
	// and whether f is indexed.
	Fingerprint(f *ir.Function) (fingerprint.Fingerprint, bool)
	// Stats returns the accumulated query accounting.
	Stats() Stats
}

// BatchIndexer is the optional bulk half of Finder: a finder that can
// (re-)index n functions in one pass implements it, and the driver's
// batched session deltas (Session.UpdateBatch) prefer it over n
// sequential Add calls. AddBatch must be equivalent to calling Add on
// each function in order. Both finders in this package implement it.
type BatchIndexer interface {
	AddBatch(fs []*ir.Function)
}

// Stats accounts for the work a Finder did. The driver folds it into the
// run report; cmd/fmerge -v prints it.
type Stats struct {
	// Queries counts Candidates calls.
	Queries int
	// Scanned counts candidate fingerprints distance-scored across all
	// queries. For Exact this is every live function per query; the
	// indexed finder scores a cell — one distinct fingerprint, however
	// many functions share it — and only when its lower bounds could not
	// reject it.
	Scanned int
	// Probed counts the index entries the queries visited, of which
	// Scanned were distance-scored: Probed - Scanned is the pruning the
	// projection bound did. For the indexed finder an entry is a cell
	// other than the query's own, so the size bound pruned the live
	// cells times Queries less Probed. Exact visits what it scores, so
	// there the two agree.
	Probed int
	// QueryTime accumulates wall-clock time spent inside Candidates.
	QueryTime time.Duration
	// Indexed is the number of functions currently indexed.
	Indexed int
	// Built counts fingerprint computations the finder performed —
	// construction plus every re-Add. A finder
	// restored from a snapshot starts with Built equal to only the
	// functions whose snapshot entries could not be reused, which is how
	// warm restarts are asserted to skip the rebuild.
	Built int
}

// AvgScanned returns the mean number of candidates scored per query.
func (s Stats) AvgScanned() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Queries)
}

// Kind selects a Finder implementation.
type Kind int

// Supported finders.
const (
	// KindExact is the brute-force fingerprint ranking (the paper's
	// §5.1 pipeline): exact top-t lists, O(n) scan per query.
	KindExact Kind = iota
	// KindLSH is the indexed exact finder (see LSH; the name and the
	// "lsh" flag value predate the removal of the sketch): the same
	// top-t lists from sub-linear query work.
	KindLSH
)

// String names the finder kind as used by the -finder flag.
func (k Kind) String() string {
	if k == KindLSH {
		return "lsh"
	}
	return "exact"
}

// KindByName parses a -finder flag value.
func KindByName(name string) (Kind, error) {
	switch name {
	case "exact":
		return KindExact, nil
	case "lsh":
		return KindLSH, nil
	}
	return 0, fmt.Errorf("search: unknown finder %q (want exact or lsh)", name)
}

// New builds the Finder of the given kind over funcs (declarations are
// ignored).
func New(kind Kind, funcs []*ir.Function) Finder {
	return NewIndexed(kind, funcs, nil)
}

// BodySource resolves the body a finder actually indexes for a
// function — the canonical-view lens. IndexBody(f) must be
// deterministic for an unchanged f; the driver's canon.Lens implements
// it by memoizing canonical views. A nil BodySource indexes original
// bodies.
type BodySource interface {
	IndexBody(f *ir.Function) *ir.Function
}

// NewIndexed is New with an optional BodySource: fingerprints are
// computed over view.IndexBody(f) while candidate identity, ordering
// and removal stay keyed by the original f. This is how canonical-view
// sessions make reducible noise (redundant memory traffic, unfolded
// constants, commuted operands, spurious blocks) invisible to
// discovery.
func NewIndexed(kind Kind, funcs []*ir.Function, view BodySource) Finder {
	return Restore(kind, funcs, view, nil)
}

// Export returns the fingerprint f holds for each indexed function —
// what a snapshot persists so a warm restart can skip recomputing them.
// Only the two concrete finders of this package are supported.
func Export(f Finder) map[*ir.Function]*fingerprint.Fingerprint {
	switch f := f.(type) {
	case *Exact:
		return f.r.Fingerprints()
	case *LSH:
		return f.export()
	}
	return nil
}

// Restore is NewIndexed adopting the fingerprints in prior instead of
// recomputing them; functions without a prior entry are indexed from
// scratch and counted in Stats.Built. The caller is responsible for
// only passing prior entries that still describe the function's current
// body under the same lens configuration — the driver checks structural
// hashes, and its snapshot carries the canon config as a guard, before
// trusting one.
func Restore(kind Kind, funcs []*ir.Function, view BodySource, prior map[*ir.Function]*fingerprint.Fingerprint) Finder {
	if kind == KindLSH {
		return newLSH(funcs, view, prior)
	}
	return restoreExact(funcs, view, prior)
}
