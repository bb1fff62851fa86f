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
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/transform"
)

// funcOverhead is the fixed prologue/epilogue overhead FuncBytes
// charges per defined function.
func funcOverhead(target Target) int {
	if target == Thumb {
		return 4
	}
	return 8
}

// FuncProfile is one function's share of the stage-1 screening state:
// the byte-weighted histogram of its self-matchable instruction
// classes plus the fixed terms of the profit bound. Profiles are
// interner-scoped — two profiles may only be combined by Bound when
// their sequences were interned by the same align.Interner (one
// align.Cache), since class IDs are only comparable within one
// universe.
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
	// are never screened. sync.Once makes the lazy fill safe under the
	// capture workers' concurrency; slackKnown lets BoundLazy read an
	// already-settled value without ever forcing the computation.
	// reducible, settled by the same run, records whether clean-up finds
	// anything at all to do to the function.
	slackOnce  sync.Once
	slack      int
	reducible  bool
	slackKnown atomic.Bool
}

// NewFuncProfile builds the screening profile of f from its interned
// sequence (cache.Seq(f), or align.NewSeq for one-shot use). It is
// O(n) and does not touch the slack term; that is filled lazily on
// first use (see FuncProfile.Slack).
func NewFuncProfile(f *ir.Function, target Target, seq align.Seq) *FuncProfile {
	p := &FuncProfile{fn: f, target: target, Params: len(f.Params()), num: core.NewNumbering(f)}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			if op := in.Op(); op == ir.OpPhi || op == ir.OpLandingPad {
				p.Elastic += InstrBytes(in, target)
			}
		}
	}
	// One flat (class, bytes) list, sorted then run-length encoded: a
	// profile is built for every indexed function, so this stays a
	// couple of slice allocations instead of two maps' worth of churn.
	type classEntry struct{ c, nb int32 }
	tmp := make([]classEntry, 0, len(seq.Entries))
	for i, e := range seq.Entries {
		c := seq.Classes[i]
		// A class that cannot match itself is solo: no partner exists
		// anywhere in the interner's universe, so it can never save
		// bytes. ClassesMatch(c, c) is exactly that test.
		if e.IsLabel() || !align.ClassesMatch(c, c) {
			continue
		}
		tmp = append(tmp, classEntry{c, int32(InstrBytes(e.Instr, target))})
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].c < tmp[j].c })
	for i := 0; i < len(tmp); {
		j, nb := i+1, tmp[i].nb
		for j < len(tmp) && tmp[j].c == tmp[i].c {
			if tmp[j].nb > nb {
				nb = tmp[j].nb
			}
			j++
		}
		p.Classes = append(p.Classes, tmp[i].c)
		p.Counts = append(p.Counts, int32(j-i))
		p.ClassBytes = append(p.ClassBytes, nb)
		i = j
	}
	return p
}

// Slack is the number of bytes Simplify would already strip from the
// profiled function on its own. Trials simplify the merged body before
// costing it, so savings up to the originals' own simplification slack
// are reachable without any alignment match; the bound must grant
// them. Computed once per profile and cached: a function
// transform.Settled finds clean has none, and only one it leaves
// undecided pays for a clone and a Simplify run (the clone never joins
// a module). Both reads of the original are read-only, and nothing
// writes a module function while profiles are being settled — capture
// workers only clone, and CloneFunction is read-only on its source.
func (p *FuncProfile) Slack() int {
	p.slackOnce.Do(func() {
		p.reducible = transform.HasPromotable(p.fn)
		if !transform.Settled(p.fn) {
			c, _ := ir.CloneFunction(p.fn, p.fn.Name())
			if transform.Simplify(c) > 0 {
				p.reducible = true
			}
			if s := FuncBytes(p.fn, p.target) - FuncBytes(c, p.target); s > 0 {
				p.slack = s
			}
		}
		p.slackKnown.Store(true)
	})
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
// (slack, true) once Slack has settled, (0, false) before. The atomic
// store inside Slack's once-body publishes the value, so a true answer
// always pairs with the settled slack.
func (p *FuncProfile) SlackIfKnown() (int, bool) {
	if p.slackKnown.Load() {
		return p.slack, true
	}
	return 0, false
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
	// MaxMatchBytes is the largest per-entry byte cost among the
	// classes the two histograms share (0 if they share none). It
	// converts alignment score into bytes for the stage-2 DP floor:
	// matched bytes <= MaxMatchBytes * InstrMatches.
	MaxMatchBytes int
	// Exact reports whether both slack terms were included. A lazy
	// bound with Exact false omits unknown slack, so UB and Fixed sit
	// AT OR BELOW their admissible values: UB > gate still proves
	// survival (the exact bound is no smaller), but a skip — and the
	// stage-2/3 floors, which need Fixed from above actual slack — must
	// first be confirmed through the exact Bound.
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
	matched, maxB := 0, 0
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
			if int(nb) > maxB {
				maxB = int(nb)
			}
			i++
			j++
		}
	}
	return PairBound{UB: fixed + matched, Fixed: fixed, MaxMatchBytes: maxB, Exact: ok1 && ok2}
}

// ScoreNeeded translates the bound into the minimum alignment score a
// trial must reach before its profit can exceed gate, for use as the
// bounded DP's floor (align.Options.MinScore). Under the default
// match-or-gap scoring (instruction match 2, label match 1, gap 0) an
// alignment with score s has at most s/2 instruction matches, so
// matched bytes <= MaxMatchBytes*s/2 and profit <= Fixed +
// MaxMatchBytes*s/2. The returned floor is the smallest s that keeps
// profit > gate possible; 0 disables the floor (every score could
// still pass, or no class is shared so the DP is pointless anyway and
// stage 1 already decided). Only valid under the default scoring, and
// only admissible on an Exact bound — an inexact Fixed underestimates,
// which would raise the floor past soundness.
func (b PairBound) ScoreNeeded(gate int) int32 {
	if b.MaxMatchBytes <= 0 {
		return 0
	}
	need := gate - b.Fixed
	if need < 0 {
		return 0
	}
	sn := 2*need/b.MaxMatchBytes + 1
	if sn > 1<<30 {
		sn = 1 << 30
	}
	return int32(sn)
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
func ForcedCut(p1, p2 *FuncProfile, pairs []align.Pair, opts core.Options, target Target) int {
	plan, err := core.PlanParams(p1.fn, p2.fn)
	if err != nil {
		return 0
	}
	minArity := 1 + max(p1.Params, p2.Params)
	return ForcedBytes(core.CountForced(pairs, &p1.num, &p2.num, plan, opts), target) +
		2*(ThunkBytes(target, 1+len(plan.Params))-ThunkBytes(target, minArity))
}

// SavingsUpperBound returns an admissible upper bound on the profit of
// merging f1 and f2: the real trial's cost-model profit (align, merge,
// simplify, price thunks) never exceeds it. One-shot form over a
// private interner; batch callers (the driver's funnel) hold profiles
// keyed by their session cache instead.
func SavingsUpperBound(f1, f2 *ir.Function, target Target) int {
	it := align.NewInterner()
	p1 := NewFuncProfile(f1, target, align.NewSeq(f1, it))
	p2 := NewFuncProfile(f2, target, align.NewSeq(f2, it))
	return Bound(p1, p2, target).UB
}
