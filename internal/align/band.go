package align

import "context"

// The alignment kernel: Needleman–Wunsch over the cells that can matter.
//
// Give every entry its match weight (LabelMatchScore, InstrMatchScore, or
// 0 for a classSolo entry) and let PA[i], PB[j] be the prefix sums over a
// and b, Wa and Wb the totals. At GapPenalty 0 a path through cell (i,j)
// scores at most min(PA[i],PB[j]) + min(Wa-PA[i],Wb-PB[j]), so only the
// cells with PA[i]-(Wa-L) <= PB[j] <= PA[i]+(Wb-L) — one column interval
// per row, both ends non-decreasing — can lie on an alignment scoring L
// or more. The kernel fills that band alone, from two rolling score rows
// and one direction byte per filled cell; cells outside it read as 0,
// which at gap 0 under-estimates every true score. If the fill ends at
// S >= L, S is the optimum and the backtrack is the full matrix's own
// path, pair for pair; if not, the optimum is below L and a lower floor
// is tried, down a short ladder that ends at Options.MinScore (where
// S < L is ErrBelowBound) or, without one, at L = 0: the whole matrix.
// DESIGN.md "Alignment performance" has the argument and the overhead.

// bandMinCells is the matrix size under which the ladder is not worth its
// O(n+m) set-up and the last rung runs at once.
const bandMinCells = 1 << 10

// band is the kernel's scratch state. It holds no *Entry, so pooling it
// pins no IR.
type band struct {
	pa, pb    []int32   // prefix sums of match weight: pa[i] covers a[:i]
	rows      []bandRow // one per DP row, 0..n
	prev, cur []int32   // rolling score rows
	dir       []byte
	cnt       []int32 // class histogram, all zero between alignments
}

// bandRow is the part of DP row i inside the band: columns lo..hi, the
// direction of cell (i,j) at dir[off+j-lo].
type bandRow struct {
	lo, hi int32
	off    int
}

// alignBanded computes the optimal alignment of a and b, filling the pair
// list in place from the end. It is the only quadratic solver: Hirschberg's
// base cases call it too.
func alignBanded(ctx context.Context, a, b []Entry, ca, cb []int32, opts Options, res *Result) error {
	n, m := len(a), len(b)
	cells := int64(n+1) * int64(m+1)
	if opts.MaxCells > 0 && cells > opts.MaxCells {
		return ErrTooLarge
	}
	s := getBand(n, m)
	defer bandPool.Put(s)

	// The rungs are L = top-delta for growing delta, then floor. The band
	// is admissible only when gaps are free and weights are not negative
	// (the prefix sums must be monotone); otherwise floor and delta stay 0
	// and the one rung is the whole matrix, the floor ignored.
	var floor, top, delta int32
	if opts.GapPenalty == 0 && opts.InstrMatchScore >= 0 && opts.LabelMatchScore >= 0 {
		floor = max(opts.MinScore, 0)
		probe := cells >= bandMinCells
		if floor > 0 || probe {
			wa, wb, h := s.weigh(ca, cb, opts)
			if h < floor {
				return ErrBelowBound
			}
			top = min(wa, wb)
			if probe {
				// No alignment beats the class-histogram intersection h,
				// so the first rung starts there; a 64th of the longer
				// side keeps it from being uselessly thin.
				delta = max(top-h, max(wa, wb)/64, 8)
			}
		}
	}
	for {
		l := floor
		if delta > 0 {
			l = max(top-delta, floor)
		}
		width, ok := s.bound(l)
		if l > floor && 4*(res.filled+width) > cells {
			// A failed probe is pure overhead: together they may fill a
			// quarter of the matrix, then the last rung decides.
			delta = 0
			continue
		}
		if ok {
			res.filled += width
			score, err := s.fill(ctx, ca, cb, opts, width)
			if err != nil {
				return err
			}
			if score >= l || l <= 0 {
				res.Score = score
				res.MatrixBytes = cells * 5
				s.backtrack(a, b, ca, res)
				return nil
			}
		}
		if l == floor {
			return ErrBelowBound
		}
		delta *= 4
	}
}

// weigh fills the prefix sums and returns both totals and the weight of
// the class-histogram intersection, an upper bound on any alignment score.
func (s *band) weigh(ca, cb []int32, opts Options) (wa, wb, h int32) {
	s.pa[0], s.pb[0] = 0, 0
	for i, c := range ca {
		wa += opts.weight(c)
		s.pa[i+1] = wa
		if c >= 0 {
			if int(c) >= len(s.cnt) {
				s.cnt = append(s.cnt, make([]int32, int(c)+1-len(s.cnt))...)
			}
			s.cnt[c]++
		}
	}
	for j, c := range cb {
		w := opts.weight(c)
		wb += w
		s.pb[j+1] = wb
		if c >= 0 && int(c) < len(s.cnt) && s.cnt[c] > 0 {
			s.cnt[c]--
			h += w
		}
	}
	for _, c := range ca {
		if c >= 0 {
			s.cnt[c] = 0
		}
	}
	return wa, wb, h
}

// bound computes the band of floor l — row intervals and direction-byte
// offsets — and its size in cells. A row without a viable cell means no
// alignment reaches l: ok is false. l <= 0 is the whole matrix.
func (s *band) bound(l int32) (width int64, ok bool) {
	n, m := len(s.pa)-1, len(s.pb)-1
	if l <= 0 {
		for i := range s.rows {
			s.rows[i] = bandRow{0, int32(m), i * (m + 1)}
		}
		return int64(n+1) * int64(m+1), true
	}
	da, db := s.pa[n]-l, s.pb[m]-l
	lo, hi, off := 0, 0, 0
	for i, x := range s.pa {
		for lo < m && s.pb[lo] < x-da {
			lo++
		}
		for hi < m && s.pb[hi+1] <= x+db {
			hi++
		}
		if lo > hi {
			return 0, false
		}
		s.rows[i] = bandRow{int32(lo), int32(hi), off}
		off += hi - lo + 1
	}
	return int64(off), true
}

// fill runs the DP over the current band and returns the score of cell
// (n,m). A row filling columns lo..hi reads the row above over lo-1..hi
// and its own cell lo-1; whatever of that lies outside the band is set to
// 0 first (the rolling rows hold stale values there), O(n+m) writes in all.
func (s *band) fill(ctx context.Context, ca, cb []int32, opts Options, width int64) (int32, error) {
	s.dir = grow(s.dir, int(width))
	dir := s.dir
	gap := opts.GapPenalty
	prev, cur := s.prev, s.cur
	plo, phi := 0, int(s.rows[0].hi)
	prev[0] = 0
	for j := 1; j <= phi; j++ {
		prev[j] = prev[j-1] - gap
		dir[j] = dirLeft
	}
	for i := 1; i < len(s.rows); i++ {
		if i&cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		r := s.rows[i]
		lo, hi := int(r.lo), int(r.hi)
		for j := phi + 1; j <= hi; j++ {
			prev[j] = 0
		}
		drow := dir[r.off : r.off+hi-lo+1]
		start := lo
		if lo == 0 {
			cur[0] = prev[0] - gap
			drow[0] = dirUp
			drow = drow[1:]
			start = 1
		} else {
			cur[lo-1] = 0
			if lo == plo {
				prev[lo-1] = 0
			}
		}
		cai := ca[i-1]
		ms := opts.InstrMatchScore
		if cai == ClassLabel {
			ms = opts.LabelMatchScore
		}
		matchable := cai != classSolo
		// Windows over columns start..hi: out[k] is cell (i, start+k).
		out := cur[start : hi+1]
		up := prev[start : hi+1][:len(out)]
		diag := prev[start-1 : hi][:len(out)]
		cls := cb[start-1 : hi][:len(out)]
		drow = drow[:len(out)]
		left := cur[start-1]
		for k := range out {
			best := up[k] - gap
			d := dirUp
			if v := left - gap; v > best {
				best, d = v, dirLeft
			}
			if matchable && cai == cls[k] {
				if v := diag[k] + ms; v >= best {
					best, d = v, dirDiag
				}
			}
			out[k] = best
			drow[k] = d
			left = best
		}
		prev, cur = cur, prev
		plo, phi = lo, hi
	}
	return prev[len(cb)], nil
}

// backtrack recovers the alignment path from the direction bytes, filling
// the pair list in place from the end (a path has at most n+m pairs). It
// visits cells of an optimal path only, and those are in the band; a step
// outside it means the kernel's exactness argument is broken.
func (s *band) backtrack(a, b []Entry, ca []int32, res *Result) {
	need := len(a) + len(b)
	if cap(res.buf) < need {
		res.buf = make([]Pair, need)
	}
	buf := res.buf[:need]
	k := need
	for i, j := len(a), len(b); i > 0 || j > 0; {
		r := s.rows[i]
		if j < int(r.lo) || j > int(r.hi) {
			panic("align: backtrack left the band")
		}
		k--
		switch s.dir[r.off+j-int(r.lo)] {
		case dirDiag:
			buf[k] = Pair{A: &a[i-1], B: &b[j-1]}
			res.Matches++
			if ca[i-1] != ClassLabel {
				res.InstrMatches++
			}
			i, j = i-1, j-1
		case dirUp:
			buf[k] = Pair{A: &a[i-1]}
			i--
		case dirLeft:
			buf[k] = Pair{B: &b[j-1]}
			j--
		default:
			panic("align: corrupt backtrack matrix")
		}
	}
	res.Pairs = buf[k:]
}
