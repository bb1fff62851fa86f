package transform

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/ir"
)

// RemoveDuplicatePhis merges phis within a block that are identical up
// to undef refinement: where one phi has undef for an incoming edge and
// the other has a concrete value, the concrete value wins (refining an
// undef is always sound). The paper relies on this clean-up to merge the
// identical phi-nodes that SalSSA copies from both input functions; the
// undef refinement additionally collapses the phis introduced by SSA
// repair into the copied phis they duplicate. Returns the number of phis
// removed.
//
// What it does is defined by the scan "for i < j over the block's phis:
// mergePhiPair(i, j)", repeated over all blocks until nothing changes —
// which phi of a pair survives and the order of the erasures are that
// scan's. What it costs is not: a block of more than a few phis is seen
// through a phiView, which takes only the pairs that could merge to
// mergePhiPair, and a sweep visits only the blocks due (due.go).
func RemoveDuplicatePhis(f *ir.Function) int {
	s := newScratch(f, nil)
	return removeDuplicatePhis(&s)
}

func removeDuplicatePhis(s *scratch) (removed int) {
	f, v := s.f, &s.view
	if dupPhiCheck != nil {
		done := dupPhiCheck(f)
		defer func() { done(removed) }()
	}
	for {
		before := removed
		for _, b := range f.Blocks {
			if !due(passDuplicatePhis, b, s) {
				continue
			}
			clean(passDuplicatePhis, b)
			switch phis := b.Phis(); {
			case len(phis) < 2:
			case len(phis) <= pairwiseMax:
				// The common case, kept off the heap.
				var few [pairwiseMax]*ir.Instruction
				removed += scanPhis(b, few[:copy(few[:], phis)])
			default:
				removed += v.fold(b, phis)
			}
		}
		if removed == before || settled(s, passDuplicatePhis) {
			return removed
		}
	}
}

// scanPhis is the scan itself, over phis — the block's phis as they were
// when its visit began.
func scanPhis(blk *ir.Block, phis []*ir.Instruction) int {
	removed := 0
	for i, a := range phis {
		// A phi erased mid-scan has dropped its incoming list and matches
		// nothing from there on.
		for j := i + 1; j < len(phis) && a.Parent() != nil; j++ {
			if b := phis[j]; b.Parent() != nil && mergePhiPair(blk, a, b) {
				removed++
			}
		}
	}
	return removed
}

// hasDuplicates is RemoveDuplicatePhis' trigger for a block: some pair
// of its phis merges.
func (v *phiView) hasDuplicates(blk *ir.Block) bool {
	phis := blk.Phis()
	if len(phis) > pairwiseMax {
		v.dry = true
		found := v.fold(blk, phis) > 0
		v.dry = false
		if found || v.described {
			return found
		}
	}
	for i, a := range phis {
		for _, b := range phis[i+1:] {
			if weak, _ := phiMerge(a, b); weak != nil {
				return true
			}
		}
	}
	return false
}

// dupPhiCheck, when a test sets it, gets f before every
// RemoveDuplicatePhis, and what it returns the result after.
var dupPhiCheck func(f *ir.Function) func(removed int)

// mergePhiPair merges redundant phis (see phiMerge), erasing the weaker.
func mergePhiPair(blk *ir.Block, a, b *ir.Instruction) bool {
	weak, strong := phiMerge(a, b)
	if weak == nil {
		return false
	}
	// Collapse self/mutual references through the erased phi.
	for i := 0; i < strong.NumIncoming(); i++ {
		if strong.IncomingValue(i) == ir.Value(weak) {
			strong.SetIncomingValue(i, strong)
		}
	}
	ir.ReplaceAllUsesWith(weak, strong)
	blk.Erase(weak)
	return true
}

// phiMerge is mergePhiPair's decision, RemoveDuplicatePhis' trigger: of
// two phis of one block, the one that goes (weak) and the one that
// takes its uses, or nils. Two phis merge when one refines the other
// *one-directionally*: every incoming of the weaker phi either equals
// the stronger phi's incoming or is undef. Bidirectional refinement
// (each phi concrete where the other is undef) is deliberately NOT
// performed here — that transformation is exactly phi-node coalescing,
// the paper's §4.4 optimisation, owned by the SalSSA generator so that
// the SalSSA-NoPC ablation stays meaningful.
func phiMerge(a, b *ir.Instruction) (weak, strong *ir.Instruction) {
	if !ir.TypesEqual(a.Type(), b.Type()) || a.NumIncoming() != b.NumIncoming() {
		return nil, nil
	}
	aWeaker, bWeaker := true, true
	for i := 0; i < a.NumIncoming(); i++ {
		bv, ok := b.IncomingFor(a.IncomingBlock(i))
		if !ok {
			return nil, nil
		}
		av := a.IncomingValue(i)
		switch {
		case ir.ValuesEqual(av, bv):
		case (av == ir.Value(b) && bv == ir.Value(a)) ||
			(av == ir.Value(a) && bv == ir.Value(b)):
			// mutually/self recursive duplicates
		case isUndef(av):
			bWeaker = false
		case isUndef(bv):
			aWeaker = false
		default:
			return nil, nil
		}
		if !aWeaker && !bWeaker {
			return nil, nil
		}
	}
	if !bWeaker {
		return a, b
	}
	return b, a
}

// pairwiseMax is the largest block folded by the plain scan: up to here
// its few comparisons, most of which stop at their first edge, cost less
// than describing every phi.
const pairwiseMax = 4

// phiView is RemoveDuplicatePhis' scratch, sized by the first block that
// needs it and reused for every later one. For one block it fixes a
// predecessor-slot order — the first phi's incoming blocks — and
// describes every phi against it, in whatever order the phi lists its
// edges: the set of slots holding undef, and a signature hashed over the
// other slots' values. Two phis with the same undef slots can only merge
// if they agree on every slot, hence only if their signatures are equal;
// with different undef slots one may refine the other, whatever the
// signatures say, but still only if they agree wherever neither holds
// undef — which eight one-byte signatures, of the slots taken modulo
// eight, decide for most pairs. None of these facts changes while the
// block is being folded: a merge rewrites operands only from one phi of
// the block to another, and every phi of the block hashes as the same
// sentinel (which is also what lets self and mutual references through).
// So the description is taken once per visit, and the pairs it rules out
// are pairs mergePhiPair would have rejected whenever the scan reached
// them; the rest are visited in the scan's order.
type phiView struct {
	phis  []*ir.Instruction // the block's phis when the visit began
	slots []*ir.Block       // the slot order
	info  []phiInfo
	heads []int32 // scratch: the first phi of each (undef, sig) bucket, hashed
	cross []int32 // ascending: the phis with cross set
	// dry: fold only looks — it stops at the first pair that would merge
	// and merges nothing. described: the last fold could describe its
	// block (else it left it to the plain scan, which dry does not run).
	dry, described bool
}

type phiInfo struct {
	sig   uint64
	undef uint64 // bit s: slot s holds undef
	// Byte l of lanes hashes the values of slots l, l+8, ...; byte l of
	// laneUndef is all ones if one of them is undef.
	lanes, laneUndef uint64
	// next is the following phi with this one's undef slots and
	// signature, -1 at the end of the chain.
	next int32
	// wild: the slot order cannot express the phi (another edge count, a
	// block outside the order, a repeated edge), so the fields above say
	// nothing and it meets every other phi.
	wild bool
	// cross: wild, or with other undef slots than most of the block's
	// phis; these are checked against every later phi, and every earlier
	// one against them.
	cross bool
}

// fold is one visit of RemoveDuplicatePhis to a block holding phis; it
// returns how many it erased (dry: 1 if it found a pair, else 0).
func (v *phiView) fold(blk *ir.Block, phis []*ir.Instruction) int {
	v.phis = append(v.phis[:0], phis...)
	if v.described = v.describe(blk); !v.described {
		if v.dry {
			return 0
		}
		return scanPhis(blk, v.phis)
	}
	removed := 0
	past := 0 // cross[past:] lie after phi i
	for i, a := range v.phis {
		if v.dry && removed > 0 {
			return removed
		}
		if v.info[i].cross {
			for j := i + 1; j < len(v.phis) && a.Parent() != nil; j++ {
				removed += v.try(blk, i, j)
			}
			continue
		}
		for past < len(v.cross) && int(v.cross[past]) <= i {
			past++
		}
		// Its chain and the cross phis, merged into ascending order.
		c, x := v.info[i].next, past
		for a.Parent() != nil {
			var j int32
			if x < len(v.cross) && (c < 0 || v.cross[x] < c) {
				j = v.cross[x]
				x++
			} else if c >= 0 {
				j, c = c, v.info[c].next
			} else {
				break
			}
			removed += v.try(blk, i, int(j))
		}
	}
	return removed
}

// try is the scan's step for the pair i < j, the first still in the
// block: 1 if they merged.
func (v *phiView) try(blk *ir.Block, i, j int) int {
	a, b := v.phis[i], v.phis[j]
	if b.Parent() == nil {
		return 0
	}
	if x, y := &v.info[i], &v.info[j]; !x.wild && !y.wild {
		switch both := x.undef & y.undef; {
		case (x.lanes^y.lanes)&^(x.laneUndef|y.laneUndef) != 0:
			return 0 // they differ in a lane where neither holds undef
		case x.undef == y.undef && x.sig != y.sig:
			return 0
		case both != x.undef && both != y.undef:
			return 0 // each holds undef where the other does not
		}
	}
	if v.dry {
		if weak, _ := phiMerge(a, b); weak != nil {
			return 1
		}
		return 0
	}
	if mergePhiPair(blk, a, b) {
		return 1
	}
	return 0
}

// describe fills the view for v.phis; false leaves the block to the
// plain scan: the first phi's own incoming list is no slot order (a
// repeated edge), or longer than the undef mask.
func (v *phiView) describe(blk *ir.Block) bool {
	first := v.phis[0].Operands()
	if len(first) > 2*64 {
		return false
	}
	v.slots = v.slots[:0]
	for t := 1; t < len(first); t += 2 {
		b := first[t].(*ir.Block)
		if slices.Index(v.slots, b) >= 0 {
			return false
		}
		v.slots = append(v.slots, b)
	}
	n := len(v.phis)
	buckets := 1 << bits.Len(uint(2*n)) // a power of two, at most half full
	if cap(v.info) < n {
		v.info = make([]phiInfo, n)
		v.heads = make([]int32, buckets)
	}
	v.info, v.heads = v.info[:n], v.heads[:buckets]
	// The undef slots most phis have, if most agree (else some phi's: the
	// choice only decides how much is left to the cross checks).
	var major uint64
	votes := 0
	for p, phi := range v.phis {
		x := &v.info[p]
		v.describePhi(blk, phi, x)
		switch {
		case x.wild:
		case votes == 0:
			major, votes = x.undef, 1
		case x.undef == major:
			votes++
		default:
			votes--
		}
	}
	// From the last phi back, each finds its successor at the head of its
	// bucket.
	for h := range v.heads {
		v.heads[h] = -1
	}
	v.cross = v.cross[:0]
	for p := n - 1; p >= 0; p-- {
		x := &v.info[p]
		if x.wild || x.undef != major {
			x.cross = true
			v.cross = append(v.cross, int32(p))
		}
		if x.wild {
			continue
		}
		for h := (x.sig ^ x.undef) * fibonacci >> (64 - bits.Len(uint(buckets-1))); ; h = (h + 1) % uint64(buckets) {
			q := v.heads[h]
			if q >= 0 && (v.info[q].sig != x.sig || v.info[q].undef != x.undef) {
				continue
			}
			x.next, v.heads[h] = q, int32(p)
			break
		}
	}
	slices.Reverse(v.cross)
	return true
}

const fibonacci = 0x9e3779b97f4a7c15 // 2^64 / the golden ratio: multiplicative hashing

// describePhi describes phi, whose edges may come in any order, against
// the slot order.
func (v *phiView) describePhi(blk *ir.Block, phi *ir.Instruction, x *phiInfo) {
	*x = phiInfo{next: -1, wild: true}
	ops := phi.Operands()
	if len(ops) != 2*len(v.slots) {
		return
	}
	var sig, lanes, undefs, laneUndef uint64
	var placed uint64 // the slots met so far
	for t := 0; t < len(ops); t += 2 {
		// Phis of one block mostly list their edges alike.
		s := t / 2
		if b := ops[t+1].(*ir.Block); v.slots[s] != b {
			s = slices.Index(v.slots, b)
		}
		if s < 0 || placed&(1<<s) != 0 {
			return
		}
		placed |= 1 << s
		lane := 8 * (s % 8)
		key, undef := slotKey(blk, ops[t])
		if undef {
			undefs |= 1 << s
			laneUndef |= 0xff << lane
			continue
		}
		key = (key + uint64(s)) * fibonacci
		lanes ^= key >> 56 << lane
		sig ^= bits.RotateLeft64(key, s)
	}
	*x = phiInfo{sig: sig, undef: undefs, lanes: lanes, laneUndef: laneUndef, next: -1}
}

// slotKey hashes one incoming value such that values mergePhiPair takes
// for equal get equal keys: payload for constants, and for the rest
// something that stands for identity as long as the block's visit lasts —
// an instruction's place in its function, since only phis of blk move —
// except that all phis of blk share one key. Unequal values with one key
// only cost a comparison.
func slotKey(blk *ir.Block, v ir.Value) (key uint64, undef bool) {
	const (
		kindInstr = iota << 60
		kindLocalPhi
		kindArg
		kindInt
		kindFloat
		kindOther
	)
	switch x := v.(type) {
	case *ir.Instruction:
		p := x.Parent()
		switch {
		case p == blk && x.Op() == ir.OpPhi:
			return kindLocalPhi, false
		case p == nil:
			return kindOther, false
		}
		return kindInstr | uint64(p.Index())<<32 | uint64(x.Index()), false
	case *ir.Undef:
		return kindOther, true
	case *ir.Argument:
		return kindArg | uint64(x.Index()), false
	case *ir.ConstInt:
		return kindInt ^ uint64(x.V), false
	case *ir.ConstFloat:
		switch {
		case x.V == 0: // either zero
			return kindFloat, false
		case math.IsNaN(x.V): // any NaN
			return kindFloat | 1, false
		}
		return kindFloat ^ math.Float64bits(x.V), false
	}
	return kindOther, false
}
