// The planning funnel's per-session profile store (stage 1 of the
// funnel; see ISSUE/DESIGN "Planning funnel"). Every indexed function
// gets one costmodel.FuncProfile — its class histogram plus the fixed
// terms of the admissible profit bound — built from the same cached
// linearization the alignment stage uses, so a screen costs a sorted
// histogram intersection instead of an O(n·m) DP plus codegen.
//
// Profiles are dropped whenever the underlying body is re-indexed,
// retired or removed (the same invalidation points as the align cache)
// and rebuilt lazily on the next screen.
package driver

import (
	"repro/internal/align"
	"repro/internal/costmodel"
	"repro/internal/ir"
)

// funnel owns the screening profiles of one session. Only the session's
// own calls, which it serializes, touch it.
type funnel struct {
	target costmodel.Target
	cache  *align.Cache
	prof   map[*ir.Function]*costmodel.FuncProfile
}

func newFunnel(target costmodel.Target, cache *align.Cache) *funnel {
	return &funnel{
		target: target,
		cache:  cache,
		prof:   map[*ir.Function]*costmodel.FuncProfile{},
	}
}

// profile returns f's screening profile, building and memoizing it on
// first use, so every screen of f shares one profile (and its lazily
// computed slack term).
func (fu *funnel) profile(f *ir.Function) *costmodel.FuncProfile {
	p := fu.prof[f]
	if p == nil {
		p = costmodel.NewFuncProfile(f, fu.target, fu.cache.Seq(f))
		fu.prof[f] = p
	}
	return p
}

// screen computes the stage-1 profit bound for one candidate pair
// without forcing the slack terms, and hands back the profiles so the
// caller can confirm a failed gate through the exact bound (and so the
// trial's later stages can do the same). Both profiles live in the
// session cache's interner universe, the precondition costmodel.Bound
// requires.
func (fu *funnel) screen(f1, f2 *ir.Function) (costmodel.PairBound, *costmodel.FuncProfile, *costmodel.FuncProfile) {
	p1, p2 := fu.profile(f1), fu.profile(f2)
	return costmodel.BoundLazy(p1, p2, fu.target), p1, p2
}

// invalidate drops f's profile; the next screen rebuilds it from the
// current body. Nil-safe, like the other index layers, so FMSA
// sessions thread a nil funnel through the shared invalidation rule.
func (fu *funnel) invalidate(f *ir.Function) {
	if fu != nil {
		delete(fu.prof, f)
	}
}
