package align

import (
	"context"
	"sync"
)

// Hirschberg's linear-space variant of the alignment. The paper's §5.5
// identifies the quadratic DP matrix as the dominant memory cost of
// function merging (6.5 GB for 403.gcc under FMSA); this divide-and-
// conquer formulation produces the same optimal score using O(n+m)
// memory at the cost of roughly doubling the work. It is offered as an
// extension (Options via AlignLinear / driver ablation benchmarks): with
// it, even demotion-inflated alignments stay small, trading the paper's
// memory argument for extra time.
//
// Like the default kernel, the inner loops compare interned class IDs
// and the row buffers come from the shared pools, so steady-state
// alignment does no per-pair allocation beyond the recovered path.

// AlignLinear computes an optimal global alignment of a and b with the
// same scoring as Align but in linear space. The alignment score equals
// Align's; the recovered path may differ among co-optimal alignments.
func AlignLinear(a, b []Entry, opts Options) (*Result, error) {
	return AlignLinearCtx(context.Background(), a, b, opts)
}

// AlignLinearCtx is AlignLinear with cancellation: the context is polled
// between DP rows of every divide-and-conquer subproblem.
func AlignLinearCtx(ctx context.Context, a, b []Entry, opts Options) (*Result, error) {
	it := NewInterner()
	sa := Seq{Entries: a, Classes: it.Classes(a, nil)}
	sb := Seq{Entries: b, Classes: it.Classes(b, nil)}
	res := &Result{}
	if err := alignLinearSeqs(ctx, sa, sb, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// alignLinearSeqs runs the divide-and-conquer solver over interned
// sequences, accumulating the path directly into res.Pairs (reusing its
// capacity) and deriving score and match counts from the path.
func alignLinearSeqs(ctx context.Context, a, b Seq, opts Options, res *Result) error {
	// MaxCells caps the quadratic solver's memory; the linear solver
	// needs O(n+m) regardless, so the cap is cleared rather than letting
	// an O(n+m) base case trip it.
	opts.MaxCells = 0
	// Bounded mode: one forward linear-space pass with a per-row abort
	// decides the floor before the divide-and-conquer starts (whose
	// recursion has no single frontier to bound). The scan computes the
	// exact optimal score when it runs to completion, so a non-aborting
	// pass still settles score < MinScore without a backtrack.
	if ms := opts.MinScore; ms > 0 && opts.GapPenalty == 0 {
		below, err := boundedScan(ctx, a.Entries, b.Entries, a.Classes, b.Classes, opts, ms)
		if err != nil {
			return err
		}
		if below {
			return ErrBelowBound
		}
		opts.MinScore = 0 // floor settled; solve runs unbounded
	}
	h, _ := hirschbergPool.Get().(*hirschberg)
	if h == nil {
		h = &hirschberg{}
	}
	h.opts, h.ctx, h.peakBytes = opts, ctx, 0
	h.out = res.buf[:0]
	h.solve(a.Entries, b.Entries, a.Classes, b.Classes)
	out, peak := h.out, h.peakBytes
	// The output buffer and accounting become the caller's; only the
	// scratch state (base-case result, and the struct itself) is
	// recycled. The scratch pair buffer is cleared — its Entry pointers
	// would otherwise pin the last run's instruction graph inside the
	// global pool — and nothing on h may be read past this Put: another
	// goroutine may already be reusing it.
	scr := h.scratch.buf[:cap(h.scratch.buf)]
	for i := range scr {
		scr[i] = Pair{}
	}
	h.scratch.Pairs = nil
	h.out, h.ctx = nil, nil
	hirschbergPool.Put(h)
	res.buf = out[:0]
	if err := ctx.Err(); err != nil {
		return err
	}
	res.Pairs = out
	res.MatrixBytes = peak
	for _, p := range res.Pairs {
		if p.IsMatch() {
			res.Matches++
			if p.A.IsLabel() {
				res.Score += opts.LabelMatchScore
			} else {
				res.InstrMatches++
				res.Score += opts.InstrMatchScore
			}
		} else {
			res.Score -= opts.GapPenalty
		}
	}
	return nil
}

// boundedScan runs one forward DP pass over pooled rows and reports
// whether the optimal score of aligning a and b is provably below
// minScore. rem tracks the match score the rows not yet filled can still
// add: at gap 0 every row is monotone in j, so cur[m] is the best score
// over all prefixes of b and no alignment beats cur[m] + rem. Requires
// GapPenalty == 0 (the rows must be monotone for cur[m] to dominate
// the row). When the pass completes, cur[m] is the exact optimal
// score, so the verdict is precise, not just conservative.
func boundedScan(ctx context.Context, a, b []Entry, ca, cb []int32, opts Options, minScore int32) (below bool, err error) {
	rem := classPotential(ca, opts)
	if rem < minScore || classPotential(cb, opts) < minScore {
		return true, nil
	}
	m := len(b)
	pr := getRow(m + 1)
	cr := getRow(m + 1)
	defer putRow(pr)
	defer putRow(cr)
	prev, cur := pr.row, cr.row
	for j := 1; j <= m; j++ {
		prev[j] = 0 // gap is 0, so the border row is all zeros
	}
	for i := 1; i <= len(a); i++ {
		if i&cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		cur[0] = 0
		cai := ca[i-1]
		ms := opts.InstrMatchScore
		if cai == ClassLabel {
			ms = opts.LabelMatchScore
		}
		matchable := cai != classSolo
		for j := 1; j <= m; j++ {
			best := prev[j]
			if s := cur[j-1]; s > best {
				best = s
			}
			if matchable && cai == cb[j-1] {
				if s := prev[j-1] + ms; s > best {
					best = s
				}
			}
			cur[j] = best
		}
		if matchable {
			rem -= ms
		}
		if cur[m]+rem < minScore {
			return true, nil
		}
		prev, cur = cur, prev
	}
	return false, nil
}

// classPotential is the total match score one side can contribute: the
// sum of per-entry match scores over entries whose class can match at
// all. At GapPenalty 0 it upper-bounds any alignment's score, and its
// suffix sums drive boundedScan's per-row abort.
func classPotential(cs []int32, opts Options) int32 {
	var p int32
	for _, c := range cs {
		p += opts.weight(c)
	}
	return p
}

// hirschbergPool recycles solver scratch state (most usefully the
// base-case Result and its pair buffer) across alignments.
var hirschbergPool sync.Pool

type hirschberg struct {
	opts      Options
	ctx       context.Context
	peakBytes int64
	out       []Pair
	// scratch is the reusable kernel result for the O(n+m) base cases.
	scratch Result
}

// cancelled reports whether the alignment's context has been cancelled;
// the recursion unwinds with a partial path that alignLinearSeqs
// discards.
func (h *hirschberg) cancelled() bool { return h.ctx.Err() != nil }

// lastRow returns the final DP row aligning a against b (forward
// direction), i.e. row[j] = best score of aligning all of a with b[:j].
// The returned buffer comes from the row pool; the caller releases it
// with putRow.
func (h *hirschberg) lastRow(a, b []Entry, ca, cb []int32, reversed bool) *dpRow {
	m := len(b)
	pr := getRow(m + 1)
	cr := getRow(m + 1)
	h.account(int64(2 * (m + 1) * 4))
	prev, cur := pr.row, cr.row
	gap := h.opts.GapPenalty
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] - gap
	}
	for i := 1; i <= len(a); i++ {
		if i&cancelStride == 0 && h.cancelled() {
			break
		}
		cur[0] = prev[0] - gap
		cai := ca[i-1]
		if reversed {
			cai = ca[len(a)-i]
		}
		ms := h.opts.InstrMatchScore
		if cai == ClassLabel {
			ms = h.opts.LabelMatchScore
		}
		matchable := cai != classSolo
		for j := 1; j <= m; j++ {
			cbj := cb[j-1]
			if reversed {
				cbj = cb[m-j]
			}
			best := prev[j] - gap
			if s := cur[j-1] - gap; s > best {
				best = s
			}
			if matchable && cai == cbj {
				if s := prev[j-1] + ms; s > best {
					best = s
				}
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	pr.row, cr.row = prev, cur
	putRow(cr)
	return pr
}

func (h *hirschberg) account(bytes int64) {
	if bytes > h.peakBytes {
		h.peakBytes = bytes
	}
}

// solve appends the optimal path for (a, b) to h.out, left to right.
func (h *hirschberg) solve(a, b []Entry, ca, cb []int32) {
	if h.cancelled() {
		return
	}
	switch {
	case len(a) == 0:
		for j := range b {
			h.out = append(h.out, Pair{B: &b[j]})
		}
		return
	case len(b) == 0:
		for i := range a {
			h.out = append(h.out, Pair{A: &a[i]})
		}
		return
	case len(a) == 1 || len(b) == 1:
		// Small enough for the quadratic kernel; its matrix is O(n+m).
		h.scratch.reset()
		if err := alignBanded(h.ctx, a, b, ca, cb, h.opts, &h.scratch); err != nil {
			// The base case cannot exceed MaxCells (no cap applies here);
			// only cancellation reaches this, and the partial path is
			// discarded by alignLinearSeqs.
			return
		}
		h.account(h.scratch.MatrixBytes)
		h.out = append(h.out, h.scratch.Pairs...)
		return
	}
	mid := len(a) / 2
	fwd := h.lastRow(a[:mid], b, ca[:mid], cb, false)
	bwd := h.lastRow(a[mid:], b, ca[mid:], cb, true)
	split, best := 0, int32(-1<<30)
	for j := 0; j <= len(b); j++ {
		if s := fwd.row[j] + bwd.row[len(b)-j]; s > best {
			best = s
			split = j
		}
	}
	putRow(fwd)
	putRow(bwd)
	h.solve(a[:mid], b[:split], ca[:mid], cb[:split])
	h.solve(a[mid:], b[split:], ca[mid:], cb[split:])
}
