package align

import (
	"context"
	"math/bits"
)

// The alignment kernel: bit-parallel LCS (Allison–Dix, Hyyrö).
//
// Gaps are free and a match scores its class's weight: 2 for an
// instruction, 1 for a label, 0 for a classSolo entry (which matches
// nothing). Expand each sequence by writing every instruction twice,
// every label once and every solo entry not at all, and let pos(j) be
// the expanded width of b[:j]. The optimum D(i,j) of the prefixes a[:i],
// b[:j] is then the length of the longest common subsequence of their
// expansions, and that LCS is computed 64 columns per machine word: V is
// a bit row over b's expansion, all ones for the empty prefix of a, and
// each expanded symbol of a, with the mask PM of b's positions holding
// its class, updates it by
//
//	U = V & PM;  V = (V + U) | (V &^ U)
//
// after which bit k of V is clear exactly where the LCS gains one at
// column k+1. So with V_i the row after a's i-th entry,
//
//	D(i,j) = pos(j) - popcount(V_i below pos(j)).
//
// The kernel keeps all n+1 rows, reads the score and any cell it needs
// back from them, and backtracks by the full matrix's own tie rule, so
// the pair list is the one a quadratic Needleman–Wunsch fill produces.
// DESIGN.md "Alignment performance" has the argument.

// kernel is the aligner's scratch state. It holds no *Entry, so pooling
// it pins no IR.
type kernel struct {
	w     int      // words per row: ⌈pos(m)/64⌉
	pos   []int32  // pos[j] is the expanded width of b[:j]
	rows  []uint64 // V_i is rows[i*w : (i+1)*w]
	masks []uint64 // one match mask of w words per slot
	slot  []int32  // class -> 1 + its slot, 0 for a class b lacks; all zero between alignments
}

// weight is the score of matching two entries of class c, and the width
// of one such entry in the expansion.
func weight(c int32) int32 {
	switch c {
	case ClassLabel:
		return 1
	case classSolo:
		return 0
	}
	return 2
}

// alignBits computes the optimal alignment of a and b, filling the pair
// list in place from the end. It is the only solver.
func alignBits(ctx context.Context, a, b []Entry, ca, cb []int32, opts Options, res *Result) error {
	n, m := len(a), len(b)
	cells := int64(n+1) * int64(m+1)
	if opts.MaxCells > 0 && cells > opts.MaxCells {
		return ErrTooLarge
	}
	k := getKernel()
	defer k.release(cb)
	k.index(cb)
	if err := k.fill(ctx, ca); err != nil {
		return err
	}
	res.Score = k.pos[m] - k.below(n, k.pos[m])
	res.MatrixBytes = cells * 5
	k.backtrack(a, b, ca, cb, res)
	return nil
}

// index gives every class of b a slot and a match mask over b's
// expansion, and fills pos.
func (k *kernel) index(cb []int32) {
	k.pos = grow(k.pos, len(cb)+1)
	k.pos[0] = 0
	slots := 0
	for j, c := range cb {
		k.pos[j+1] = k.pos[j] + weight(c)
		if c == classSolo {
			continue
		}
		if int(c) >= len(k.slot) {
			k.slot = append(k.slot, make([]int32, int(c)+1-len(k.slot))...)
		}
		if k.slot[c] == 0 {
			slots++
			k.slot[c] = int32(slots)
		}
	}
	k.w = (int(k.pos[len(cb)]) + 63) >> 6
	k.masks = grow(k.masks, slots*k.w)
	clear(k.masks)
	for j, c := range cb {
		if c == classSolo {
			continue
		}
		s := int(k.slot[c] - 1)
		mask := k.masks[s*k.w : (s+1)*k.w]
		for p := k.pos[j]; p < k.pos[j+1]; p++ {
			mask[p>>6] |= 1 << (p & 63)
		}
	}
}

// slotOf returns the slot of class c, or -1 when b has no entry of it.
func (k *kernel) slotOf(c int32) int {
	if c < 0 || int(c) >= len(k.slot) {
		return -1
	}
	return int(k.slot[c]) - 1
}

// fill computes V_0..V_n, polling the context every 16 rows.
func (k *kernel) fill(ctx context.Context, ca []int32) error {
	w := k.w
	k.rows = grow(k.rows, (len(ca)+1)*w)
	prev := k.rows[:w]
	for x := range prev {
		prev[x] = ^uint64(0)
	}
	for i, c := range ca {
		if (i+1)&cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cur := k.rows[(i+1)*w : (i+2)*w]
		s := k.slotOf(c)
		if s < 0 {
			copy(cur, prev)
		} else {
			step(cur, prev, k.masks[s*w:(s+1)*w], weight(c) == 2)
		}
		prev = cur
	}
	return nil
}

// step advances the bit row v by one symbol of match mask pm into dst,
// or by two when twice is set, in one pass over the words: each step's
// sum carries from word to word.
func step(dst, v, pm []uint64, twice bool) {
	pm, dst = pm[:len(v)], dst[:len(v)]
	var c1, c2 uint64
	for x, vx := range v {
		p := pm[x]
		u := vx & p
		sum, c := bits.Add64(vx, u, c1)
		vx, c1 = sum|vx&^u, c
		if twice {
			u = vx & p
			sum, c2 = bits.Add64(vx, u, c2)
			vx = sum | vx&^u
		}
		dst[x] = vx
	}
}

// below counts the set bits of V_i below bit p.
func (k *kernel) below(i int, p int32) int32 {
	row := k.rows[i*k.w : (i+1)*k.w]
	q, n := int(p>>6), 0
	for _, x := range row[:q] {
		n += bits.OnesCount64(x)
	}
	if r := p & 63; r != 0 {
		n += bits.OnesCount64(row[q] & (1<<r - 1))
	}
	return int32(n)
}

// span counts the set bits of V_i in [p, q), the at most two bits of one
// entry of b.
func (k *kernel) span(i int, p, q int32) int32 {
	row := k.rows[i*k.w:]
	n := int32(0)
	for ; p < q; p++ {
		n += int32(row[p>>6] >> (p & 63) & 1)
	}
	return n
}

// Backtrack directions.
const (
	dirDiag = iota
	dirUp   // gap in b (consume a)
	dirLeft // gap in a (consume b)
)

// backtrack walks from (n,m) to (0,0) by the full matrix's rule — up
// first, left only if strictly greater, diagonal if a match ties or
// beats that — and fills the pair list in place from the end (a path has
// at most n+m pairs). It carries the popcounts of V_i and V_i-1 below
// pos(j), so a left step costs two bit reads and only a step up recounts
// a row.
func (k *kernel) backtrack(a, b []Entry, ca, cb []int32, res *Result) {
	need := len(a) + len(b)
	if cap(res.buf) < need {
		res.buf = make([]Pair, need)
	}
	buf := res.buf[:need]
	out := need
	pos := k.pos
	i, j := len(a), len(b)
	var ci, cu int32 // popcounts of V_i and V_i-1 below pos[j]
	if i > 0 {
		ci, cu = k.below(i, pos[j]), k.below(i-1, pos[j])
	}
	for i > 0 && j > 0 {
		p0, p1 := pos[j-1], pos[j]
		si, su := k.span(i, p0, p1), k.span(i-1, p0, p1)
		up, left := p1-cu, p0-(ci-si)
		best, dir := up, dirUp
		if left > best {
			best, dir = left, dirLeft
		}
		if ClassesMatch(ca[i-1], cb[j-1]) && p0-(cu-su)+weight(ca[i-1]) >= best {
			dir = dirDiag
		}
		out--
		switch dir {
		case dirDiag:
			buf[out] = Pair{A: &a[i-1], B: &b[j-1]}
			res.Matches++
			if ca[i-1] != ClassLabel {
				res.InstrMatches++
			}
			i, j = i-1, j-1
			ci = cu - su
		case dirLeft:
			buf[out] = Pair{B: &b[j-1]}
			j--
			ci, cu = ci-si, cu-su
			continue
		case dirUp:
			buf[out] = Pair{A: &a[i-1]}
			i--
			ci = cu
		}
		if i > 0 {
			cu = k.below(i-1, pos[j])
		}
	}
	for ; i > 0; i-- {
		out--
		buf[out] = Pair{A: &a[i-1]}
	}
	for ; j > 0; j-- {
		out--
		buf[out] = Pair{B: &b[j-1]}
	}
	res.Pairs = buf[out:]
}
