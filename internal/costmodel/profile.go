// profile.go implements the stage-1 planning funnel bound: an
// admissible (never-false-negative) upper bound on the profit any
// merge trial of a candidate pair can achieve, computed in O(n) from
// per-function class histograms instead of the O(n·m) alignment DP
// plus codegen a full trial costs.
//
// Derivation. Write FuncBytes(f) = overhead + E(f) + X(f), where E(f)
// sums InstrBytes over the entries alignment linearizes and X(f) over
// the entries it excludes (phis and landingpads — the "elastic" part a
// merge may legitimately shrink or grow). A merged body built from any
// alignment keeps every unmatched entry of both originals, keeps one
// copy per matched pair, and only adds instructions on top (selects,
// fid dispatch, extra phis). Simplify can then remove at most what it
// could already remove from each original alone — merging never makes
// an original's branch foldable, because merged predecessor sets only
// union the originals', and the one instruction it does expose, an
// unconditional branch left alone in its block behind a dispatch on
// the identifier, costs less than the dispatch — plus the matched
// duplicates already accounted. Hence
//
//	FuncBytes(Simplify(merged)) >= overhead + E1 + E2 - matched - slack1 - slack2
//
// with slack_i = FuncBytes(f_i) - FuncBytes(Simplify(clone(f_i))).
// Substituting into profit = pre1 + pre2 - merged - 2*thunk and
// bounding matched by the class-histogram intersection and the thunk
// by its minimum arity gives PairBound.UB.
package costmodel

import (
	"slices"
	"sync"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// FuncProfile is one function's share of the stage-1 screening state:
// the byte-weighted histogram of its self-matchable instruction
// classes plus the fixed terms of the profit bound. Profiles are
// interner-scoped — two profiles may only be combined by Bound when
// their sequences were interned by the same align.Interner (a driver
// session holds one for every function it indexes), since class IDs are
// only comparable within one universe.
type FuncProfile struct {
	// Elastic sums the InstrBytes of the entries Linearize excludes
	// (phis and landingpads): bytes FuncBytes charges but no alignment
	// match can ever save, priced into the bound's fixed part.
	Elastic int
	// Params is the function's parameter count; the merged function
	// carries 1 + max(Params) parameters at least, which lower-bounds
	// the thunk cost the profit must pay twice.
	Params int
	// Classes lists the interned classes of the function's matchable
	// instruction entries in ascending order; Counts[i] is how many
	// entries carry Classes[i] and ClassBytes[i] the per-entry
	// InstrBytes of that class (constant within a class: a class pins
	// the opcode, types and auxiliaries InstrBytes reads). Labels are
	// excluded (matching them saves no instruction bytes) and so are
	// solo-class entries (they can never match anything).
	Classes    []int32
	Counts     []int32
	ClassBytes []int32

	fn     *ir.Function
	target Target
	// num numbers fn's values for core.CountForced, once per profile
	// rather than once per pair the function is tried in.
	num core.Numbering

	// slack is computed lazily: it needs a clone plus a Simplify run,
	// which is too expensive to pay at index time for functions that
	// are never screened. slackKnown lets BoundLazy read an already
	// settled value without ever forcing the computation. reducible,
	// settled by the same run, records whether clean-up finds anything
	// at all to do to the function. A profile is not safe for concurrent
	// use: it belongs to one session's funnel.
	slack      int
	reducible  bool
	slackKnown bool
}

// NewFuncProfile builds the screening profile of f from its interned
// sequence (align.NewSeq for one-shot use; a session builds both in one
// walk, Touch). It is O(n) and does not touch the slack term; that is
// filled lazily on first use (see FuncProfile.Slack).
func NewFuncProfile(f *ir.Function, target Target, seq align.Seq) *FuncProfile {
	sc, _ := profileScratch.Get().(*TouchScratch)
	if sc == nil {
		sc = new(TouchScratch)
	}
	defer profileScratch.Put(sc)
	sc.bytes = sc.bytes[:0]
	elastic := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if op := in.Op(); op == ir.OpPhi || op == ir.OpLandingPad {
				elastic += InstrBytes(in, target)
			}
		}
	}
	for _, e := range seq.Entries {
		sc.bytes = append(sc.bytes, entryBytes(e, target))
	}
	p, _ := sc.profile(f, target, elastic, seq.Classes, 0)
	return p
}

// profileScratch recycles NewFuncProfile's scratch, which, unlike a
// session's, has no owner to keep it.
var profileScratch sync.Pool

// TouchScratch is what the first-touch walk (Touch) collects on its way
// through a body: kept by the caller from function to function, so that
// a walk allocates only what it returns.
type TouchScratch struct {
	entries []align.Entry
	classes []int32
	// bytes[i] is InstrBytes of entry i, 0 for a label.
	bytes []int32
	// distinct lists the body's matchable classes as first met, and
	// count[c] and width[c] are class c's entries and largest InstrBytes
	// (zero again once the profile is built). Class IDs are dense, so
	// the two tables grow to the interner's class count at most.
	distinct     []int32
	count, width []int32
}

// Touch is a function's first touch: one walk over f's body builds its
// sequence, interned by it (what align.NewSeq builds), and its
// screening profile with its core.Numbering (what NewFuncProfile
// builds). The walk collects into sc and then allocates each fact once,
// at its exact size: the entries, the profile, and one int32 array that
// holds the class vector, the profile's three histogram columns and the
// numbering's block table.
func Touch(f *ir.Function, target Target, it *align.Interner, sc *TouchScratch) (align.Seq, *FuncProfile) {
	sc.entries, sc.bytes = sc.entries[:0], sc.bytes[:0]
	elastic := 0
	for _, b := range f.Blocks {
		sc.entries = append(sc.entries, align.Entry{Label: b})
		sc.bytes = append(sc.bytes, 0)
		for _, in := range b.Instrs() {
			nb := InstrBytes(in, target)
			if op := in.Op(); op == ir.OpPhi || op == ir.OpLandingPad {
				elastic += nb
				continue
			}
			sc.entries = append(sc.entries, align.Entry{Instr: in})
			sc.bytes = append(sc.bytes, int32(nb))
		}
	}
	sc.classes = it.Classes(sc.entries, sc.classes[:0])
	n := len(sc.entries)
	p, head := sc.profile(f, target, elastic, sc.classes, n)
	seq := align.Seq{Entries: slices.Clone(sc.entries), Classes: head}
	copy(seq.Classes, sc.classes)
	clear(sc.entries)
	return seq, p
}

// entryBytes is InstrBytes of an entry, 0 for a label.
func entryBytes(e align.Entry, target Target) int32 {
	if e.IsLabel() {
		return 0
	}
	return int32(InstrBytes(e.Instr, target))
}

// profile builds f's profile from its entries' classes, with sc.bytes
// parallel to them, and the elastic bytes. The profile's int32 columns
// and its numbering share one allocation, whose first head elements,
// left zero, are returned for the caller.
func (sc *TouchScratch) profile(f *ir.Function, target Target, elastic int, classes []int32, head int) (*FuncProfile, []int32) {
	// A histogram over the dense class IDs, its distinct classes counted
	// and sorted before the columns are allocated.
	sc.distinct = sc.distinct[:0]
	for i, c := range classes {
		// A class that cannot match itself is solo: no partner exists
		// anywhere in the interner's universe, so it can never save
		// bytes. ClassesMatch(c, c) is exactly that test.
		if c == align.ClassLabel || !align.ClassesMatch(c, c) {
			continue
		}
		if int(c) >= len(sc.count) {
			n := 2 * (int(c) + 1)
			sc.count = append(sc.count, make([]int32, n-len(sc.count))...)
			sc.width = append(sc.width, make([]int32, n-len(sc.width))...)
		}
		if sc.count[c] == 0 {
			sc.distinct = append(sc.distinct, c)
		}
		sc.count[c]++
		sc.width[c] = max(sc.width[c], sc.bytes[i])
	}
	slices.Sort(sc.distinct)
	d := len(sc.distinct)
	slab := make([]int32, head+3*d+len(f.Blocks))
	p := &FuncProfile{fn: f, target: target, Params: len(f.Params()), Elastic: elastic,
		Classes:    slab[head : head+d : head+d],
		Counts:     slab[head+d : head+2*d : head+2*d],
		ClassBytes: slab[head+2*d : head+3*d : head+3*d],
		num:        core.NumberInto(f, slab[head+3*d:]),
	}
	for k, c := range sc.distinct {
		p.Classes[k], p.Counts[k], p.ClassBytes[k] = c, sc.count[c], sc.width[c]
		sc.count[c], sc.width[c] = 0, 0
	}
	return p, slab[:head:head]
}

// Slack is the number of bytes Simplify would already strip from the
// profiled function on its own. Trials simplify the merged body before
// costing it, so savings up to the originals' own simplification slack
// are reachable without any alignment match; the bound must grant
// them. Computed once per profile and cached: a function
// transform.Settled finds clean has none, and only one it leaves
// undecided pays for a clone and a Simplify run (the clone never joins
// a module, and goes back to the pools through ir.Release once it is
// priced). Both reads of the original are read-only: neither Settled
// nor CloneFunction moves a use list or a stamp of its source.
func (p *FuncProfile) Slack() int {
	if p.slackKnown {
		return p.slack
	}
	p.reducible = transform.HasPromotable(p.fn)
	if !transform.Settled(p.fn) {
		c, _ := ir.CloneFunction(p.fn, p.fn.Name())
		if transform.Simplify(c) > 0 {
			p.reducible = true
		}
		if s := FuncBytes(p.fn, p.target) - FuncBytes(c, p.target); s > 0 {
			p.slack = s
		}
		ir.Release(c)
	}
	p.slackKnown = true
	return p.slack
}

// Irreducible reports whether the clean-up a trial runs on its merged
// body would leave the profiled function alone: Simplify changes
// nothing in it (so its Slack is zero) and register promotion has no
// stack slot to promote. Every instruction of such a function outlives
// a merge, which is the premise ForcedCut rests on. Settled together
// with the slack term, at the same one-off cost.
func (p *FuncProfile) Irreducible() bool {
	p.Slack()
	return !p.reducible
}

// SlackIfKnown returns the slack term without forcing its computation:
// (slack, true) once Slack has settled, (0, false) before.
func (p *FuncProfile) SlackIfKnown() (int, bool) {
	return p.slack, p.slackKnown
}

// PairBound is the stage-1 screening verdict for one candidate pair.
type PairBound struct {
	// UB is an admissible upper bound on the profit of any merge trial
	// of the pair: actual trial profit <= UB, always. UB <= gate
	// therefore proves the trial cannot beat the gate and may be
	// skipped without changing the committed merge set.
	UB int
	// Fixed is UB minus the matched-bytes term: the part of the bound
	// that does not depend on how many entries actually align. The
	// post-alignment refinement Fixed + MatchedPairBytes(pairs) is a
	// tighter admissible bound once the true alignment is known.
	Fixed int
	// Exact reports whether both slack terms were included. A lazy
	// bound with Exact false omits unknown slack, so UB and Fixed sit
	// AT OR BELOW their admissible values: UB > gate still proves
	// survival (the exact bound is no smaller), but a skip — and the
	// stage-3 refinement, which needs Fixed from above actual slack —
	// must first be confirmed through the exact Bound.
	Exact bool
}

// Bound intersects two profiles into the pair's screening bound,
// forcing both slack terms (the result is always Exact). Both profiles
// must come from the same interner universe and the same target.
func Bound(p1, p2 *FuncProfile, target Target) PairBound {
	p1.Slack()
	p2.Slack()
	return BoundLazy(p1, p2, target)
}

// BoundLazy is Bound without forcing the slack computations: slack
// terms that have already settled are included, unknown ones are
// omitted and the result is marked inexact. Since slack is
// non-negative, an inexact UB or Fixed is a lower bound on the exact
// one — good enough to prove a pair survives a gate, never enough to
// screen it out (see PairBound.Exact).
func BoundLazy(p1, p2 *FuncProfile, target Target) PairBound {
	np := p1.Params
	if p2.Params > np {
		np = p2.Params
	}
	s1, ok1 := p1.SlackIfKnown()
	s2, ok2 := p2.SlackIfKnown()
	fixed := funcOverhead(target) + p1.Elastic + p2.Elastic +
		s1 + s2 - 2*ThunkBytes(target, np+1)
	matched := 0
	for i, j := 0, 0; i < len(p1.Classes) && j < len(p2.Classes); {
		c1, c2 := p1.Classes[i], p2.Classes[j]
		switch {
		case c1 < c2:
			i++
		case c2 < c1:
			j++
		default:
			n := p1.Counts[i]
			if p2.Counts[j] < n {
				n = p2.Counts[j]
			}
			nb := p1.ClassBytes[i]
			if p2.ClassBytes[j] > nb {
				nb = p2.ClassBytes[j]
			}
			matched += int(n) * int(nb)
			i++
			j++
		}
	}
	return PairBound{UB: fixed + matched, Fixed: fixed, Exact: ok1 && ok2}
}

// MatchedPairBytes sums the per-entry byte costs of the matched
// instruction pairs of an alignment: the exact value the histogram
// intersection upper-bounds. Fixed + MatchedPairBytes is the stage-3
// post-alignment refinement of the profit bound — if it cannot clear
// the gate, building the merged body is pointless.
func MatchedPairBytes(pairs []align.Pair, target Target) int {
	n := 0
	for _, p := range pairs {
		if !p.IsMatch() || p.A.IsLabel() {
			continue
		}
		ba := InstrBytes(p.A.Instr, target)
		if bb := InstrBytes(p.B.Instr, target); bb > ba {
			ba = bb
		}
		n += ba
	}
	return n
}

// ForcedCut tightens the stage-3 bound once the alignment is known: the
// bytes the pairwise SalSSA generator is forced to add for it
// (core.CountForced, priced by ForcedBytes) plus what two thunks of the
// merged function's exact arity cost over the minimum arity Fixed
// assumed. Fixed + MatchedPairBytes - ForcedCut bounds the trial's
// profit from above when both profiles are Irreducible — the counted
// items are then certain to survive clean-up — and proves nothing for
// any other pair. pairs must align p1's function (the A entries) with
// p2's; a pair no plan unifies yields 0.
// The plan and the count's table live in sc, the caller's scratch (nil:
// a one-off cut's own), so that a pair the cut settles leaves nothing
// allocated behind.
func ForcedCut(p1, p2 *FuncProfile, pairs []align.Pair, target Target, sc *core.CutScratch) int {
	if sc == nil {
		sc = new(core.CutScratch)
	}
	plan, ok := sc.Plan(p1.fn, p2.fn)
	if !ok {
		return 0
	}
	minArity := 1 + max(p1.Params, p2.Params)
	return ForcedBytes(sc.Count(pairs, &p1.num, &p2.num, plan), target) +
		2*(ThunkBytes(target, 1+len(plan.Params))-ThunkBytes(target, minArity))
}
