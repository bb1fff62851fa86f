package search

import (
	"sync"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/ir"
)

// Exact is the brute-force Finder: a thin accounting layer over
// fingerprint.Ranking. Candidate lists are bit-identical to the
// original pipeline's, so runs configured with KindExact reproduce the
// historical committed merge set exactly.
type Exact struct {
	r *fingerprint.Ranking

	mu    sync.Mutex
	stats Stats
}

// NewExact indexes every defined function in funcs.
func NewExact(funcs []*ir.Function) *Exact {
	return restoreExact(funcs, nil, nil)
}

// restoreExact is NewExact with an optional BodySource lens and
// optionally precomputed fingerprints; only the functions prior does not
// cover count toward Stats.Built.
func restoreExact(funcs []*ir.Function, view BodySource, prior map[*ir.Function]*fingerprint.Fingerprint) *Exact {
	var body func(*ir.Function) *ir.Function
	if view != nil {
		body = view.IndexBody
	}
	r, built := fingerprint.NewRankingIndexed(funcs, body, prior)
	e := &Exact{r: r}
	e.stats.Built = built
	return e
}

// Order returns the functions sorted largest-first.
func (e *Exact) Order() []*ir.Function { return e.r.Order() }

// Candidates returns the exact top-t list for f by fingerprint distance.
func (e *Exact) Candidates(f *ir.Function, t int) []*ir.Function {
	start := time.Now()
	out := e.r.Candidates(f, t)
	scanned := e.r.Live() - 1 // every live fingerprint except f's
	e.mu.Lock()
	e.stats.Queries++
	if scanned > 0 {
		e.stats.Scanned += scanned
		e.stats.Probed += scanned
	}
	e.stats.QueryTime += time.Since(start)
	e.mu.Unlock()
	return out
}

// Fingerprint returns a copy of the fingerprint f is indexed with, and
// whether it is indexed.
func (e *Exact) Fingerprint(f *ir.Function) (fingerprint.Fingerprint, bool) {
	return e.r.Fingerprint(f)
}

// Add (re-)indexes f.
func (e *Exact) Add(f *ir.Function) {
	if f.IsDecl() {
		return
	}
	e.r.Add(f)
	e.mu.Lock()
	e.stats.Built++
	e.mu.Unlock()
}

// AddBatch (re-)indexes a batch of functions. The ranking's Add is
// already O(1) amortized, so the batch form only saves lock traffic;
// it exists so Exact satisfies BatchIndexer and batched session deltas
// take one code path for both finders.
func (e *Exact) AddBatch(fs []*ir.Function) {
	n := 0
	for _, f := range fs {
		if f.IsDecl() {
			continue
		}
		e.r.Add(f)
		n++
	}
	e.mu.Lock()
	e.stats.Built += n
	e.mu.Unlock()
}

// Remove drops f from future candidate lists.
func (e *Exact) Remove(f *ir.Function) { e.r.Remove(f) }

// Stats returns the accumulated accounting. Indexed reflects the
// ranking's current live count, so re-Adds cannot skew it.
func (e *Exact) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Indexed = e.r.Live()
	return st
}
