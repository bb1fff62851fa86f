// Package canon computes immutable canonical views of functions: a
// private clone of the body run through mem2reg, CFG simplification,
// constant folding, operand normalization and GVN redundancy
// elimination. The view is a lens for the discovery stack — fingerprints,
// LSH sketches and structural hashes are computed over it so that
// semantically-near-identical functions that differ only in reducible
// noise (redundant memory traffic, unfolded constants, commuted
// operands, spurious blocks, duplicated pure computations) index
// identically — while merges and folds are still committed against the
// original bodies. A view is built once and never mutated; when the
// original changes, the view is dropped and rebuilt lazily.
package canon

import (
	"strings"
	"sync"

	"repro/internal/ir"
	"repro/internal/transform"
)

// Config selects the passes a canonical view is built with. The zero
// value disables canonicalization entirely (views are never built and
// every index sees original bodies); Default returns the full pipeline.
// The configuration is part of a session's persistent identity: snapshot
// hashes computed under one Config are meaningless under another, so
// Config.String() is persisted and compared on warm restart.
type Config struct {
	// Mem2Reg promotes allocas to SSA registers on the view, folding
	// away redundant load/store traffic.
	Mem2Reg bool
	// Simplify runs CFG simplification and constant folding on the
	// view: dead/empty block removal, straight-line block merging,
	// terminator folding, instruction folding, DCE.
	Simplify bool
	// Normalize orders commutative operands, canonicalizes comparison
	// predicates and sorts phi incomings deterministically.
	Normalize bool
	// GVN runs optimistic value numbering over the view and replaces
	// every instruction congruent to a dominating leader with that
	// leader, erasing the redundant computation.
	GVN bool
}

// Default is the full canonicalization pipeline — what WithCanon(true)
// selects.
func Default() Config {
	return Config{Mem2Reg: true, Simplify: true, Normalize: true, GVN: true}
}

// Enabled reports whether any canonicalization pass is selected.
func (c Config) Enabled() bool { return c.Mem2Reg || c.Simplify || c.Normalize || c.GVN }

// String renders the configuration as a stable pass list ("" when
// disabled). It is the snapshot configuration guard: two configs with
// equal strings produce identical view hash spaces.
func (c Config) String() string {
	var parts []string
	if c.Mem2Reg {
		parts = append(parts, "mem2reg")
	}
	if c.Simplify {
		parts = append(parts, "simplify")
	}
	if c.Normalize {
		parts = append(parts, "normalize")
	}
	if c.GVN {
		parts = append(parts, "gvn")
	}
	return strings.Join(parts, "+")
}

// maxRounds bounds the Normalize/GVN fixpoint: each round can enable the
// next (a GVN replacement changes def order, re-enabling commutative
// swaps; folding re-enables both), but the chain is short in practice.
const maxRounds = 8

// Build computes the canonical view of f under cfg: a detached private
// clone of the body (sharing f's name, so structural hashes of mutually
// recursive clone pairs still collide through the self tag) run through
// the configured passes. The original is never touched; the returned
// function is not part of any module and must never be committed — it
// exists only to be fingerprinted, sketched and hashed.
func Build(f *ir.Function, cfg Config) *ir.Function {
	view, _ := ir.CloneFunction(f, f.Name())
	// CloneFunction remaps params, blocks and instruction results but
	// not references to the enclosing function itself: a recursive call
	// in the clone still targets f. Redirect those to the view so its
	// structural hash sees them as self-references, exactly as the
	// original's hash does.
	self := ir.Value(f)
	for _, b := range view.Blocks {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumOperands(); i++ {
				if in.Operand(i) == self {
					in.SetOperand(i, view)
				}
			}
		}
	}
	if cfg.Mem2Reg {
		transform.Mem2Reg(view)
	}
	if cfg.Simplify {
		transform.Simplify(view)
	}
	if cfg.Normalize || cfg.GVN {
		for round := 0; round < maxRounds; round++ {
			changed := 0
			if cfg.Normalize {
				changed += Normalize(view)
			}
			if cfg.GVN {
				changed += Reduce(view)
			}
			if changed == 0 {
				break
			}
			if cfg.Simplify {
				transform.Simplify(view)
			}
		}
	}
	return view
}

// Lens maintains the canonical views of a session's functions: views are
// built lazily on first use, memoized until the underlying function is
// invalidated, and their structural hashes cached — a warm restart
// primes the hashes from a snapshot so duplicate-fold bucketing runs
// without building a single view. A nil *Lens is the canon-off lens:
// Body returns the original, Hash the injected hash of the original,
// Invalidate is a no-op.
type Lens struct {
	cfg  Config
	hash func(*ir.Function) uint64

	mu     sync.Mutex
	views  map[*ir.Function]*ir.Function
	hashes map[*ir.Function]uint64

	// DropHook, when set, is called (outside the lens lock) with each
	// view body discarded by Invalidate, so dependent caches keyed by
	// the view pointer (the align cache) can release their entries.
	DropHook func(*ir.Function)
}

// NewLens builds a lens over cfg; hash is the structural hash applied to
// view bodies (injected to keep canon free of a search dependency).
// Returns nil — the identity lens — when cfg is disabled.
func NewLens(cfg Config, hash func(*ir.Function) uint64) *Lens {
	if !cfg.Enabled() {
		return nil
	}
	return &Lens{
		cfg:    cfg,
		hash:   hash,
		views:  make(map[*ir.Function]*ir.Function),
		hashes: make(map[*ir.Function]uint64),
	}
}

// Config returns the lens's pass configuration (zero for the nil lens).
func (l *Lens) Config() Config {
	if l == nil {
		return Config{}
	}
	return l.cfg
}

// Enabled reports whether the lens canonicalizes (false for nil).
func (l *Lens) Enabled() bool { return l != nil }

// Body returns the canonical view of f, building and memoizing it on
// first use. For the nil lens it returns f itself.
func (l *Lens) Body(f *ir.Function) *ir.Function {
	if l == nil {
		return f
	}
	l.mu.Lock()
	if v, ok := l.views[f]; ok {
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	// Build outside the lock: view construction is pure on a private
	// clone, so concurrent builders at worst duplicate work; the first
	// memoized view wins so callers always converge on one pointer.
	v := Build(f, l.cfg)
	l.mu.Lock()
	if prior, ok := l.views[f]; ok {
		l.mu.Unlock()
		return prior
	}
	l.views[f] = v
	l.mu.Unlock()
	return v
}

// IndexBody implements search.BodySource: the body the finders index
// for f.
func (l *Lens) IndexBody(f *ir.Function) *ir.Function { return l.Body(f) }

// Hash returns the structural hash of f's canonical view, serving a
// primed value (from a snapshot) without building the view when one is
// available.
func (l *Lens) Hash(f *ir.Function) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	if h, ok := l.hashes[f]; ok {
		l.mu.Unlock()
		return h
	}
	l.mu.Unlock()
	h := l.hash(l.Body(f))
	l.mu.Lock()
	l.hashes[f] = h
	l.mu.Unlock()
	return h
}

// Prime records a known view hash for f (from a snapshot) so Hash can
// answer without building the view.
func (l *Lens) Prime(f *ir.Function, hash uint64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.hashes[f] = hash
	l.mu.Unlock()
}

// ForgetHashes drops every memoized view hash (the views stay). The
// structural hash names callees by symbol, so a rename reaches the hash
// of every caller's view: the session calls this when it detects one.
func (l *Lens) ForgetHashes() {
	if l == nil {
		return
	}
	l.mu.Lock()
	clear(l.hashes)
	l.mu.Unlock()
}

// Invalidate drops f's memoized view and hash after the original body
// changed (or the function left the candidate set). Safe on the nil
// lens and on functions never viewed.
func (l *Lens) Invalidate(f *ir.Function) {
	if l == nil {
		return
	}
	l.mu.Lock()
	v, had := l.views[f]
	delete(l.views, f)
	delete(l.hashes, f)
	hook := l.DropHook
	l.mu.Unlock()
	if had && hook != nil {
		hook(v)
	}
}
