package transform

import "repro/internal/ir"

// Settled reports whether Simplify would leave f exactly as it is: no
// clean-up pass finds anything to do in its first round, so Simplify
// returns 0 and writes nothing. It reads f and writes nothing, asking
// each pass's own trigger — the function the pass itself asks before it
// rewrites — of f as it stands; since no pass fires, every later pass of
// the round meets f as it stands too. Callers rely on one direction
// only: true means clean. A false may be conservative.
//
// Only uses by f's own attached instructions count. That is what a
// clone of f has — CloneFunction rebuilds use lists from the body — so
// Settled(f) answers for Simplify on a clone of f even while stale or
// foreign uses sit in f's lists.
func Settled(f *ir.Function) bool { return pending(f) == "" }

// pending names the first pass Settled finds a trigger for in f, "" if
// none.
func pending(f *ir.Function) string {
	if f.IsDecl() {
		return ""
	}
	v := uses{own: f}
	sc := newScratch(f, nil)
	s := &sc
	for _, b := range f.Blocks {
		for _, p := range [...]pass{passFoldTerminators, passMergeBlocks, passForwardEmpty, passSinglePredPhis, passDuplicatePhis, passFoldInstructions, passDCE} {
			if fires(p, b, v, s) {
				return p.String()
			}
		}
	}
	if s.hasUnreachable() {
		return passUnreachable.String()
	}
	for _, b := range f.Blocks {
		if fires(passTrivialPhis, b, v, s) {
			return passTrivialPhis.String()
		}
	}
	return ""
}

// HasPromotable reports whether Mem2Reg would promote an alloca of f,
// counting uses as Settled does.
func HasPromotable(f *ir.Function) bool {
	v := uses{own: f}
	found := false
	f.Instrs(func(in *ir.Instruction) bool {
		found = promotable(in, v)
		return !found
	})
	return found
}

// uses is which uses a clean-up trigger counts: every use (allUses, what
// the passes count), or only those whose user is an attached
// instruction of own (what Settled counts).
type uses struct{ own *ir.Function }

var allUses uses

func (v uses) counts(u ir.Use) bool {
	if v.own == nil {
		return true
	}
	b := u.User.Parent()
	return b != nil && b.Parent() == v.own
}

// has reports whether x has a counted use.
func (v uses) has(x ir.Value) bool {
	for _, u := range ir.UsesOf(x) {
		if v.counts(u) {
			return true
		}
	}
	return false
}

// preds is ir.Block.Preds over the counted uses: the distinct blocks
// whose terminator names b, in use-list order.
func (v uses) preds(b *ir.Block) []*ir.Block {
	var out []*ir.Block
	for _, u := range ir.UsesOf(b) {
		p := predOf(u, v)
		if p == nil {
			continue
		}
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// uniquePred is ir.Block.UniquePred over the counted uses.
func (v uses) uniquePred(b *ir.Block) *ir.Block {
	var pred *ir.Block
	for _, u := range ir.UsesOf(b) {
		switch p := predOf(u, v); {
		case p == nil || p == pred:
		case pred == nil:
			pred = p
		default:
			return nil
		}
	}
	return pred
}

// predOf returns the predecessor a use of a block stands for: the block
// of a counted, attached terminator (phis name blocks without branching
// from them), else nil.
func predOf(u ir.Use, v uses) *ir.Block {
	if u.User.Op() == ir.OpPhi || !u.User.IsTerminator() || !v.counts(u) {
		return nil
	}
	return u.User.Parent()
}
