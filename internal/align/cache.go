package align

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// Cache memoizes linearizations and mergeability-class vectors per
// function for the lifetime of one merging run. Candidate pairing is
// quadratic in the candidate lists — the same function is aligned
// against up to threshold partners — so without the cache every
// trial re-linearizes and re-walks types. With it, each function is
// linearized and interned exactly once; trials reduce to the DP itself.
//
// The cache must be invalidated (Invalidate) whenever a function's body
// changes — the driver does so when a commit replaces a function with a
// thunk. All methods are safe for concurrent use.
type Cache struct {
	in   *Interner
	mu   sync.RWMutex
	seqs map[*ir.Function]Seq

	hits, misses atomic.Int64
}

// NewCache returns an empty cache with its own class universe.
func NewCache() *Cache {
	return &Cache{in: NewInterner(), seqs: make(map[*ir.Function]Seq)}
}

// Seq returns f's linearization and class vector, computing and
// memoizing them on first use.
func (c *Cache) Seq(f *ir.Function) Seq {
	c.mu.RLock()
	s, ok := c.seqs[f]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return s
	}
	c.misses.Add(1)
	s = NewSeq(f, c.in)
	c.mu.Lock()
	if prior, ok := c.seqs[f]; ok {
		// A concurrent caller won the race; use its copy so every trial
		// of f shares one entries slice.
		c.mu.Unlock()
		return prior
	}
	c.seqs[f] = s
	c.mu.Unlock()
	return s
}

// CloneSeq returns the sequence for clone, a structural copy of orig
// produced by ir.CloneFunction: the clone is linearized (its entries are
// its own), but the class vector is shared with orig's cached one.
// Cloning preserves block and instruction order, opcodes, types,
// auxiliary constants and module-level callee identity, so the copied
// vector decides mergeability for the clone exactly as orig's does —
// and, crucially, a pair of clones reproduces the alignment of the pair
// of originals bit for bit. The clone itself is not cached: trial clones
// die with their scratch module.
func (c *Cache) CloneSeq(clone, orig *ir.Function) Seq {
	classes := c.Seq(orig).Classes
	entries := Linearize(clone)
	if len(entries) != len(classes) {
		panic("align: clone linearization diverges from its original")
	}
	return Seq{Entries: entries, Classes: classes}
}

// Invalidate drops f's cached sequence. Must be called when f's body
// changes (e.g. it was replaced by a thunk); it also releases the
// entries' instruction pointers for the GC.
func (c *Cache) Invalidate(f *ir.Function) {
	c.mu.Lock()
	delete(c.seqs, f)
	c.mu.Unlock()
}

// AlignFunctionsCtx aligns f1 and f2 using cached sequences.
func (c *Cache) AlignFunctionsCtx(ctx context.Context, f1, f2 *ir.Function, opts Options) (*Result, error) {
	return AlignSeqsCtx(ctx, c.Seq(f1), c.Seq(f2), opts)
}

// CacheStats is a snapshot of a cache's effectiveness, reported by the
// driver per run.
type CacheStats struct {
	// Hits and Misses count Seq lookups served from the cache vs
	// computed (a miss linearizes and interns one function).
	Hits, Misses int64
	// Functions is the number of currently cached linearizations.
	Functions int
	// Classes is the number of distinct instruction mergeability
	// classes interned so far.
	Classes int
}

// Stats returns a consistent-enough snapshot for reporting.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.seqs)
	c.mu.RUnlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Functions: n,
		Classes:   c.in.NumClasses(),
	}
}
