package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// Naive is the textbook set-based view of a function's CFG, computed
// with pointer-keyed sets from Succs alone: it shares neither the block
// indices, nor the use lists, nor any code with the analyses under test.
type Naive struct {
	Reach map[*ir.Block]bool
	// Dom[b] is the set of blocks dominating reachable block b.
	Dom   map[*ir.Block]map[*ir.Block]bool
	preds map[*ir.Block][]*ir.Block
}

func reachableSet(f *ir.Function) map[*ir.Block]bool {
	reach := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	return reach
}

// newNaive solves Dom(entry) = {entry}, Dom(b) = {b} ∪ ⋂ Dom(preds) by
// iteration from the full set.
func newNaive(f *ir.Function) *Naive {
	nv := &Naive{Reach: reachableSet(f), Dom: map[*ir.Block]map[*ir.Block]bool{}, preds: map[*ir.Block][]*ir.Block{}}
	for _, b := range f.Blocks {
		if !nv.Reach[b] {
			continue
		}
		for _, s := range b.Succs() {
			nv.preds[s] = append(nv.preds[s], b)
		}
		nv.Dom[b] = map[*ir.Block]bool{}
		if b == f.Entry() {
			nv.Dom[b][b] = true
			continue
		}
		for _, d := range f.Blocks {
			if nv.Reach[d] {
				nv.Dom[b][d] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if !nv.Reach[b] || b == f.Entry() {
				continue
			}
			for d := range nv.Dom[b] {
				if d == b {
					continue
				}
				for _, p := range nv.preds[b] {
					if !nv.Dom[p][d] {
						delete(nv.Dom[b], d)
						changed = true
						break
					}
				}
			}
		}
	}
	return nv
}

// idom is b's strict dominator that every other strict dominator of b
// dominates: the one with the largest dominator set of its own.
func (nv *Naive) idom(b *ir.Block) *ir.Block {
	var best *ir.Block
	for d := range nv.Dom[b] {
		if d != b && (best == nil || len(nv.Dom[d]) > len(nv.Dom[best])) {
			best = d
		}
	}
	return best
}

// frontier is DF(a): the blocks a does not strictly dominate that have a
// predecessor a dominates.
func (nv *Naive) frontier(a *ir.Block) map[*ir.Block]bool {
	out := map[*ir.Block]bool{}
	for y := range nv.Dom {
		if y != a && nv.Dom[y][a] {
			continue
		}
		for _, p := range nv.preds[y] {
			if nv.Dom[p][a] {
				out[y] = true
			}
		}
	}
	return out
}

func (nv *Naive) iterated(defs []*ir.Block) map[*ir.Block]bool {
	out := map[*ir.Block]bool{}
	for changed := true; changed; {
		changed = false
		from := append([]*ir.Block(nil), defs...)
		for b := range out {
			from = append(from, b)
		}
		for _, x := range from {
			if !nv.Reach[x] {
				continue
			}
			for y := range nv.frontier(x) {
				if !out[y] {
					out[y] = true
					changed = true
				}
			}
		}
	}
	return out
}

// of reads b's row of the frontier (nil for an unreachable block).
func (df *DomFrontier) of(b *ir.Block) []*ir.Block {
	r := df.t.number(b)
	if r == unreached {
		return nil
	}
	var out []*ir.Block
	for _, fb := range df.list[df.start[r]:df.start[r+1]] {
		out = append(out, df.t.rpo[fb])
	}
	return out
}

func sameSet(list []*ir.Block, set map[*ir.Block]bool) bool {
	seen := map[*ir.Block]bool{}
	for _, b := range list {
		if seen[b] || !set[b] {
			return false
		}
		seen[b] = true
	}
	return len(seen) == len(set)
}

// CheckAgainstNaive compares everything DomTree and DomFrontier answer
// about f with the naive reference, the iterated frontier over a few
// definition sets drawn from rng, and returns the reference.
func CheckAgainstNaive(t testing.TB, f *ir.Function, rng *rand.Rand) *Naive {
	t.Helper()
	nv := newNaive(f)
	dt := NewDomTree(f)
	df := NewDomFrontier(dt)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("@%s: "+format+"\n%s", append(append([]any{f.Name()}, args...), f)...)
	}

	rpo := dt.RPO()
	if !sameSet(rpo, nv.Reach) || rpo[0] != f.Entry() {
		fail("RPO is not the reachable set starting at the entry")
	}
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	for i, b := range ReversePostorder(f) {
		if rpo[i] != b {
			fail("ReversePostorder and DomTree.RPO disagree at %d", i)
		}
	}
	for _, a := range f.Blocks {
		if dt.IsReachable(a) != nv.Reach[a] {
			fail("IsReachable(%s) = %v", a.Name(), dt.IsReachable(a))
		}
		for _, b := range f.Blocks {
			want := !nv.Reach[b] || nv.Dom[b][a]
			if got := dt.Dominates(a, b); got != want {
				fail("Dominates(#%d, #%d) = %v, naive %v", a.Index(), b.Index(), got, want)
			}
		}
		if !nv.Reach[a] {
			if dt.IDom(a) != nil || dt.Children(a) != nil || df.of(a) != nil || dt.NumPreds(a) != 0 {
				fail("unreachable block #%d has tree links", a.Index())
			}
			continue
		}
		preds := 0
		for _, p := range a.Preds() {
			if nv.Reach[p] {
				preds++
			}
		}
		if got := dt.NumPreds(a); got != preds {
			fail("NumPreds(#%d) = %d, %d reachable blocks branch to it", a.Index(), got, preds)
		}
		if got, want := dt.IDom(a), nv.idom(a); got != want {
			fail("IDom(#%d) = %v, naive %v", a.Index(), got, want)
		}
		kids := map[*ir.Block]bool{}
		for c := range nv.Dom {
			if nv.idom(c) == a {
				kids[c] = true
			}
		}
		got := dt.Children(a)
		if !sameSet(got, kids) {
			fail("Children(#%d) is not the set of blocks it immediately dominates", a.Index())
		}
		for i := 1; i < len(got); i++ {
			if pos[got[i-1]] > pos[got[i]] {
				fail("Children(#%d) is not in reverse postorder", a.Index())
			}
		}
		if !sameSet(df.of(a), nv.frontier(a)) {
			fail("DF(#%d) = %v, naive %v", a.Index(), df.of(a), nv.frontier(a))
		}
	}
	var idf []*ir.Block
	for round := 0; round < 3; round++ {
		var defs []*ir.Block
		for _, b := range f.Blocks {
			if rng.Intn(4) == 0 {
				defs = append(defs, b)
			}
		}
		// The frontier reuses its scratch and the caller's buffer across
		// calls, as Mem2Reg does per alloca.
		idf = df.Iterated(defs, idf[:0])
		if !sameSet(idf, nv.iterated(defs)) {
			fail("IDF over %d definition blocks = %v, naive %v", len(defs), idf, nv.iterated(defs))
		}
	}
	return nv
}
