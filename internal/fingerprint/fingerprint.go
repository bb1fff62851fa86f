// Package fingerprint implements the candidate-ranking mechanism both
// FMSA and SalSSA use to decide which pairs of functions to attempt to
// merge (paper §5.1): each function is summarised by an opcode-frequency
// fingerprint, and for every function the t most similar other functions
// are tried, where t is the exploration threshold.
package fingerprint

import (
	"math"
	"sort"
	"sync"

	"repro/internal/ir"
)

// Fingerprint is an opcode-frequency vector plus light shape data. The
// distance between fingerprints lower-bounds how much of the functions
// cannot match under alignment, so ranking by it orders candidates by
// merge potential.
type Fingerprint struct {
	// OpCount[op] is the number of instructions with that opcode.
	OpCount [64]int32
	// Blocks is the number of basic blocks (labels align with labels).
	Blocks int32
	// Size is the total instruction count.
	Size int32
}

// New computes the fingerprint of f.
func New(f *ir.Function) *Fingerprint {
	fp := &Fingerprint{Blocks: int32(len(f.Blocks))}
	f.Instrs(func(in *ir.Instruction) bool {
		fp.OpCount[int(in.Op())]++
		fp.Size++
		return true
	})
	return fp
}

// Distance is the Manhattan distance between opcode vectors plus the
// block-count difference. Smaller means more similar; 0 does not imply
// the functions are mergeable, only that their opcode multisets agree.
func Distance(a, b *Fingerprint) int32 {
	var d int32
	for i := range a.OpCount {
		d += abs32(a.OpCount[i] - b.OpCount[i])
	}
	return d + abs32(a.Blocks-b.Blocks)
}

// DistanceWithin is Distance with an early exit: the exact distance
// when it is <= limit, or the first partial sum that exceeds limit.
// Top-t scans use it to reject candidates that cannot enter a bounded
// result set without paying for the full opcode sweep — any return
// value > limit means Distance(a, b) > limit too, which is all the
// caller needs.
func DistanceWithin(a, b *Fingerprint, limit int32) int32 {
	var d int32
	for i := range a.OpCount {
		if d += abs32(a.OpCount[i] - b.OpCount[i]); d > limit {
			return d
		}
	}
	return d + abs32(a.Blocks-b.Blocks)
}

// UpperBoundMatches returns an upper bound on the number of alignment
// matches between functions with these fingerprints: min per-opcode
// counts plus min block counts.
func UpperBoundMatches(a, b *Fingerprint) int32 {
	var n int32
	for i := range a.OpCount {
		n += min32(a.OpCount[i], b.OpCount[i])
	}
	return n + min32(a.Blocks, b.Blocks)
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Ranking owns the fingerprints of a set of candidate functions and
// answers "which t functions look most similar to f".
//
// Ranking is safe for concurrent use: reads (Candidates, Order) may run
// concurrently with each other and are serialized against the writes
// (Add, Remove). The driver's capture workers query concurrently while
// nothing writes; the write lock is for callers that also update.
type Ranking struct {
	mu    sync.RWMutex
	funcs []*ir.Function
	// present indexes funcs so Add's membership check is O(1), not a
	// linear rescan of the candidate list per re-Add.
	present map[*ir.Function]bool
	fps     map[*ir.Function]*Fingerprint
	// body, when set, maps a function to the body that is actually
	// fingerprinted in its stead — the canonical-view indexing hook. The
	// ranking still keys everything by the original *ir.Function.
	body func(*ir.Function) *ir.Function
}

// NewRanking fingerprints every defined function in the list. Duplicate
// entries are dropped.
func NewRanking(funcs []*ir.Function) *Ranking {
	r, _ := NewRankingWith(funcs, nil)
	return r
}

// NewRankingWith is NewRanking with optionally precomputed fingerprints:
// a function present in prior adopts its entry instead of being
// re-fingerprinted (the snapshot warm-restart path). It returns the
// ranking and the number of fingerprints actually computed.
func NewRankingWith(funcs []*ir.Function, prior map[*ir.Function]*Fingerprint) (*Ranking, int) {
	return NewRankingIndexed(funcs, nil, prior)
}

// NewRankingIndexed is NewRankingWith fingerprinting body(f) in place of
// each function f (nil body means f itself) — the lens through which
// canonical-view sessions index. Candidate identity, ordering and
// removal still operate on the original functions.
func NewRankingIndexed(funcs []*ir.Function, body func(*ir.Function) *ir.Function, prior map[*ir.Function]*Fingerprint) (*Ranking, int) {
	r := &Ranking{
		present: make(map[*ir.Function]bool, len(funcs)),
		fps:     make(map[*ir.Function]*Fingerprint, len(funcs)),
		body:    body,
	}
	built := 0
	for _, f := range funcs {
		if r.present[f] {
			continue
		}
		r.present[f] = true
		r.funcs = append(r.funcs, f)
		if f.IsDecl() {
			continue
		}
		if fp := prior[f]; fp != nil {
			r.fps[f] = fp
		} else {
			r.fps[f] = New(r.bodyOf(f))
			built++
		}
	}
	return r, built
}

// Fingerprints returns a copy of the live fingerprint map, the exported
// half of a snapshot.
func (r *Ranking) Fingerprints() map[*ir.Function]*Fingerprint {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[*ir.Function]*Fingerprint, len(r.fps))
	for f, fp := range r.fps {
		out[f] = fp
	}
	return out
}

// Fingerprint returns a copy of f's fingerprint, and whether f is a
// live candidate.
func (r *Ranking) Fingerprint(f *ir.Function) (Fingerprint, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fp := r.fps[f]
	if fp == nil {
		return Fingerprint{}, false
	}
	return *fp, true
}

// Live returns the number of fingerprinted candidates (functions that
// would appear in Order and candidate lists).
func (r *Ranking) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.fps)
}

// Remove drops f from future candidate lists (it was merged away).
func (r *Ranking) Remove(f *ir.Function) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.fps, f)
}

// Add (re-)fingerprints f and makes it a candidate.
func (r *Ranking) Add(f *ir.Function) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.present[f] {
		r.present[f] = true
		r.funcs = append(r.funcs, f)
	}
	r.fps[f] = New(r.bodyOf(f))
}

// bodyOf resolves the body fingerprinted for f.
func (r *Ranking) bodyOf(f *ir.Function) *ir.Function {
	if r.body == nil {
		return f
	}
	return r.body(f)
}

// Candidates returns up to t candidate partners for f, most similar
// first. Functions without fingerprints (removed/declarations) and f
// itself are skipped. Candidates whose match upper bound cannot possibly
// cover the smaller function's half are kept anyway (ranking is a
// heuristic; the cost model has the final word), matching the paper's
// pipeline where ranking only orders the attempts.
func (r *Ranking) Candidates(f *ir.Function, t int) []*ir.Function {
	r.mu.RLock()
	defer r.mu.RUnlock()
	self := r.fps[f]
	if self == nil || t <= 0 {
		return nil
	}
	// best holds the t nearest functions seen so far, sorted by (distance,
	// name) — the order a stable sort of the whole corpus would give them —
	// so the scan costs one bounded insertion per function that beats the
	// current t-th, and DistanceWithin cuts the scoring of the rest short.
	type scored struct {
		fn *ir.Function
		d  int32
	}
	best := make([]scored, 0, min(t, len(r.fps)))
	for _, g := range r.funcs {
		fp := r.fps[g]
		if fp == nil || g == f {
			continue
		}
		limit := int32(math.MaxInt32)
		if len(best) == t {
			limit = best[t-1].d
		}
		d := DistanceWithin(self, fp, limit)
		if d > limit {
			continue
		}
		// g goes after every entry it does not strictly precede, so equal
		// keys keep their order in r.funcs.
		k := sort.Search(len(best), func(i int) bool {
			return best[i].d > d || best[i].d == d && best[i].fn.Name() > g.Name()
		})
		if k == t {
			continue
		}
		if len(best) < t {
			best = append(best, scored{})
		}
		copy(best[k+1:], best[k:])
		best[k] = scored{fn: g, d: d}
	}
	out := make([]*ir.Function, len(best))
	for i, s := range best {
		out[i] = s.fn
	}
	return out
}

// Order returns the functions sorted largest-first by instruction count,
// the order in which merging is attempted ("both FMSA and SalSSA start
// merging from the largest to the smallest functions", §5.5).
func (r *Ranking) Order() []*ir.Function {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*ir.Function
	for _, f := range r.funcs {
		if r.fps[f] != nil {
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := r.fps[out[i]].Size, r.fps[out[j]].Size
		if si != sj {
			return si > sj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}
