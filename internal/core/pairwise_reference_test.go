package core

// A verbatim copy of the pre-family pairwise SalSSA generator (the
// two-function code generator as it existed before the merge stack was
// generalized to k-ary families), retained as the reference
// implementation for the k=2 differential test: Merge on a pair must
// keep producing bit-identical output to this frozen copy — the family
// generalization is required to be a strict superset, not a rewrite, of
// the pairwise path. Only mechanical renames (ref prefixes) distinguish
// this code from the pre-family files, with one exception: SSA repair
// keeps its own offender scan and coalescing, but builds the SSA over
// the classes with the family generator's buildSSA (it used to demote to
// slots and promote them again; see repair_spec_test.go).

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// refParamPlan is the pre-family ParamPlan: two hard-coded maps.
type refParamPlan struct {
	Ret        ir.Type
	Params     []ir.Type
	Map1, Map2 []int
}

func refPlanParams(f1, f2 *ir.Function) (*refParamPlan, error) {
	s1, s2 := f1.Sig(), f2.Sig()
	if !ir.TypesEqual(s1.Ret, s2.Ret) {
		return nil, fmt.Errorf("core: return types differ (%v vs %v)", s1.Ret, s2.Ret)
	}
	if s1.Variadic || s2.Variadic {
		return nil, fmt.Errorf("core: variadic functions are not merged")
	}
	p := &refParamPlan{
		Ret:  s1.Ret,
		Map1: make([]int, len(s1.Params)),
		Map2: make([]int, len(s2.Params)),
	}
	used := make([]bool, len(s2.Params))
	for i, t1 := range s1.Params {
		p.Map1[i] = len(p.Params)
		p.Params = append(p.Params, t1)
		for j, t2 := range s2.Params {
			if !used[j] && ir.TypesEqual(t1, t2) {
				used[j] = true
				p.Map2[j] = p.Map1[i]
				break
			}
		}
	}
	for j, t2 := range s2.Params {
		if !used[j] {
			used[j] = true
			p.Map2[j] = len(p.Params)
			p.Params = append(p.Params, t2)
		}
	}
	return p, nil
}

func refNewMergedShell(m *ir.Module, name string, f1, f2 *ir.Function, plan *refParamPlan) (merged *ir.Function, fid *ir.Argument, amap1, amap2 map[ir.Value]ir.Value) {
	sig := ir.FuncOf(plan.Ret, append([]ir.Type{ir.I1}, plan.Params...)...)
	names := make([]string, len(sig.Params))
	names[0] = "fid"
	for i, p := range f1.Params() {
		names[plan.Map1[i]+1] = p.Name()
	}
	merged = ir.NewFunction(name, sig, names...)
	m.AddFunc(merged)
	fid = merged.Param(0)
	amap1 = map[ir.Value]ir.Value{}
	amap2 = map[ir.Value]ir.Value{}
	for i, p := range f1.Params() {
		amap1[p] = merged.Param(plan.Map1[i] + 1)
	}
	for j, p := range f2.Params() {
		amap2[p] = merged.Param(plan.Map2[j] + 1)
	}
	return merged, fid, amap1, amap2
}

func refBuildThunk(f, merged *ir.Function, fid bool, slotOf []int, plan *refParamPlan) {
	f.EraseBlocks(f.Blocks)
	entry := f.NewBlockIn("entry")
	args := make([]ir.Value, 1+len(plan.Params))
	args[0] = ir.Bool(fid)
	for i, t := range plan.Params {
		args[i+1] = ir.NewUndef(t)
	}
	for i, p := range f.Params() {
		args[slotOf[i]+1] = p
	}
	call := ir.NewCall("", merged, args...)
	entry.Append(call)
	if ir.IsVoid(plan.Ret) {
		entry.Append(ir.NewRet(nil))
	} else {
		entry.Append(ir.NewRet(call))
	}
}

// refMerge is the pre-family Merge: pairwise alignment plus the frozen
// two-sided code generator.
func refMerge(m *ir.Module, f1, f2 *ir.Function, name string, opts Options) (*ir.Function, *Stats, error) {
	plan, err := refPlanParams(f1, f2)
	if err != nil {
		return nil, nil, err
	}
	if f1 == f2 {
		return nil, nil, fmt.Errorf("core: cannot merge a function with itself")
	}
	if f1.IsDecl() || f2.IsDecl() {
		return nil, nil, fmt.Errorf("core: cannot merge declarations")
	}
	res, err := align.AlignFunctionsCtx(context.Background(), f1, f2, opts.Align)
	if err != nil {
		return nil, nil, err
	}
	g := newRefGenerator(m, f1, f2, name, plan, opts)
	g.stats.Matches = res.Matches
	g.stats.InstrMatches = res.InstrMatches
	g.stats.MatrixBytes = res.MatrixBytes
	if err := g.run(res); err != nil {
		g.merged.EraseBlocks(g.merged.Blocks)
		m.RemoveFunc(g.merged)
		return nil, nil, err
	}
	return g.merged, &g.stats, nil
}

type refGenerator struct {
	m      *ir.Module
	fns    [2]*ir.Function
	merged *ir.Function
	fid    *ir.Argument
	opts   Options
	stats  Stats

	vmap      [2]map[ir.Value]ir.Value
	itemBlock [2]map[ir.Value]*ir.Block
	next      [2]map[*ir.Block]*ir.Block
	origin    [2]map[*ir.Block]*ir.Block

	mergedFrom  map[*ir.Instruction][2]*ir.Instruction
	clonedFrom  map[*ir.Instruction]refTaggedInstr
	phiOrigin   map[*ir.Instruction]refTaggedInstr
	padSlot     map[*ir.Instruction]*ir.Instruction
	padSlotList []*ir.Instruction
	phis        []*ir.Instruction
	order       []*ir.Instruction
}

type refTaggedInstr struct {
	side int
	orig *ir.Instruction
}

func newRefGenerator(m *ir.Module, f1, f2 *ir.Function, name string, plan *refParamPlan, opts Options) *refGenerator {
	g := &refGenerator{
		m:          m,
		fns:        [2]*ir.Function{f1, f2},
		opts:       opts,
		mergedFrom: map[*ir.Instruction][2]*ir.Instruction{},
		clonedFrom: map[*ir.Instruction]refTaggedInstr{},
		phiOrigin:  map[*ir.Instruction]refTaggedInstr{},
		padSlot:    map[*ir.Instruction]*ir.Instruction{},
	}
	merged, fid, amap1, amap2 := refNewMergedShell(m, name, f1, f2, plan)
	g.merged = merged
	g.fid = fid
	g.vmap[0] = amap1
	g.vmap[1] = amap2
	for k := 0; k < 2; k++ {
		g.itemBlock[k] = map[ir.Value]*ir.Block{}
		g.next[k] = map[*ir.Block]*ir.Block{}
		g.origin[k] = map[*ir.Block]*ir.Block{}
	}
	return g
}

func (g *refGenerator) run(res *align.Result) error {
	g.createPadSlots()
	g.buildCFG(res)
	g.assignValueOperands()
	g.assignLabelOperands()
	g.createLandingBlocks()
	g.assignPhiIncomings()
	g.repairSSA()
	return nil
}

func (g *refGenerator) createPadSlots() {
	for k := 0; k < 2; k++ {
		g.fns[k].Instrs(func(in *ir.Instruction) bool {
			if in.Op() == ir.OpLandingPad && ir.HasUses(in) {
				slot := ir.NewAlloca("lpslot", in.Type())
				g.padSlot[in] = slot
				g.padSlotList = append(g.padSlotList, slot)
				g.stats.PadSlots++
			}
			return true
		})
	}
}

// refClone is the frozen generator's copy of an original: the same
// operands, with their uses registered on the originals' values until
// operand assignment rewires them.
func refClone(in *ir.Instruction) *ir.Instruction {
	c := ir.CloneShape(in)
	for i, v := range in.Operands() {
		c.SetOperand(i, v)
	}
	return c
}

func (g *refGenerator) buildCFG(res *align.Result) {
	entry := g.merged.NewBlockIn("entry")
	for _, slot := range g.padSlotList {
		entry.Append(slot)
	}
	for _, p := range res.Pairs {
		switch {
		case p.IsMatch() && p.A.IsLabel():
			b := g.merged.NewBlockIn("m." + p.A.Label.Name())
			g.placeLabel(0, p.A.Label, b)
			g.placeLabel(1, p.B.Label, b)
		case p.IsMatch():
			b := g.merged.NewBlockIn("mi")
			mi := refClone(p.A.Instr)
			b.Append(mi)
			g.mergedFrom[mi] = [2]*ir.Instruction{p.A.Instr, p.B.Instr}
			g.order = append(g.order, mi)
			g.placeInstr(0, p.A.Instr, mi, b)
			g.placeInstr(1, p.B.Instr, mi, b)
		case p.A != nil && p.A.IsLabel():
			b := g.merged.NewBlockIn("f1." + p.A.Label.Name())
			g.placeLabel(0, p.A.Label, b)
		case p.B != nil && p.B.IsLabel():
			b := g.merged.NewBlockIn("f2." + p.B.Label.Name())
			g.placeLabel(1, p.B.Label, b)
		case p.A != nil:
			b := g.merged.NewBlockIn("i1")
			c := refClone(p.A.Instr)
			b.Append(c)
			g.clonedFrom[c] = refTaggedInstr{side: 0, orig: p.A.Instr}
			g.order = append(g.order, c)
			g.placeInstr(0, p.A.Instr, c, b)
		default:
			b := g.merged.NewBlockIn("i2")
			c := refClone(p.B.Instr)
			b.Append(c)
			g.clonedFrom[c] = refTaggedInstr{side: 1, orig: p.B.Instr}
			g.order = append(g.order, c)
			g.placeInstr(1, p.B.Instr, c, b)
		}
	}
	for k := 0; k < 2; k++ {
		for _, ob := range g.fns[k].Blocks {
			prev := g.itemBlock[k][ob]
			for _, in := range ob.Instrs() {
				if in.Op() == ir.OpPhi || in.Op() == ir.OpLandingPad {
					continue
				}
				cur := g.itemBlock[k][in]
				g.next[k][prev] = cur
				prev = cur
			}
		}
	}
	for _, b := range g.merged.Blocks {
		if b == entry || b.Term() != nil {
			continue
		}
		n1, n2 := g.next[0][b], g.next[1][b]
		switch {
		case n1 != nil && n2 != nil && n1 != n2:
			b.Append(ir.NewCondBr(g.fid, n1, n2))
		case n1 != nil:
			b.Append(ir.NewBr(n1))
		case n2 != nil:
			b.Append(ir.NewBr(n2))
		default:
			panic(fmt.Sprintf("core: merged block %s has no continuation", b.Name()))
		}
	}
	e1 := g.itemBlock[0][g.fns[0].Entry()]
	e2 := g.itemBlock[1][g.fns[1].Entry()]
	if e1 == e2 {
		entry.Append(ir.NewBr(e1))
	} else {
		entry.Append(ir.NewCondBr(g.fid, e1, e2))
	}
}

func (g *refGenerator) placeLabel(k int, ob *ir.Block, b *ir.Block) {
	g.itemBlock[k][ob] = b
	g.vmap[k][ob] = b
	g.origin[k][b] = ob
	for _, phi := range ob.Phis() {
		np := ir.NewPhi(phi.Name(), phi.Type())
		b.Append(np)
		g.vmap[k][phi] = np
		g.phiOrigin[np] = refTaggedInstr{side: k, orig: phi}
		g.phis = append(g.phis, np)
	}
}

func (g *refGenerator) placeInstr(k int, orig, merged *ir.Instruction, b *ir.Block) {
	g.itemBlock[k][orig] = b
	g.vmap[k][orig] = merged
	g.origin[k][b] = orig.Parent()
}

func (g *refGenerator) resolve(k int, v ir.Value, user *ir.Instruction) ir.Value {
	switch v := v.(type) {
	case *ir.Instruction:
		if mv, ok := g.vmap[k][v]; ok {
			return mv
		}
		if v.Op() == ir.OpLandingPad {
			return g.padLoad(v, func(ld *ir.Instruction) {
				user.Parent().InsertBefore(ld, user)
			})
		}
		panic(fmt.Sprintf("core: unmapped %v operand from f%d", v.Op(), k+1))
	case *ir.Argument:
		mv, ok := g.vmap[k][v]
		if !ok {
			panic(fmt.Sprintf("core: unmapped argument %%%s", v.Name()))
		}
		return mv
	case *ir.Block:
		panic("core: label operands are resolved by assignLabelOperands")
	default:
		return v
	}
}

func (g *refGenerator) padLoad(pad *ir.Instruction, insert func(*ir.Instruction)) ir.Value {
	slot, ok := g.padSlot[pad]
	if !ok {
		panic("core: landingpad slot missing")
	}
	ld := ir.NewLoad("lp.reload", slot)
	insert(ld)
	return ld
}

func (g *refGenerator) assignValueOperands() {
	for _, in := range g.order {
		if tagged, ok := g.clonedFrom[in]; ok {
			for i := 0; i < in.NumOperands(); i++ {
				if _, isLabel := in.Operand(i).(*ir.Block); isLabel {
					continue
				}
				in.SetOperand(i, g.resolve(tagged.side, in.Operand(i), in))
			}
			continue
		}
		pair := g.mergedFrom[in]
		i1, i2 := pair[0], pair[1]
		n := in.NumOperands()
		v1 := make([]ir.Value, n)
		v2 := make([]ir.Value, n)
		for i := 0; i < n; i++ {
			if _, isLabel := i1.Operand(i).(*ir.Block); isLabel {
				continue
			}
			v1[i] = g.resolve(0, i1.Operand(i), in)
			v2[i] = g.resolve(1, i2.Operand(i), in)
		}
		if canReorder(in) && v1[0] != nil && v1[1] != nil {
			straight := btoi(ir.ValuesEqual(v1[0], v2[0])) + btoi(ir.ValuesEqual(v1[1], v2[1]))
			swapped := btoi(ir.ValuesEqual(v1[0], v2[1])) + btoi(ir.ValuesEqual(v1[1], v2[0]))
			if swapped > straight {
				v2[0], v2[1] = v2[1], v2[0]
				g.stats.OperandSwaps++
			}
		}
		for i := 0; i < n; i++ {
			if v1[i] == nil {
				continue
			}
			if ir.ValuesEqual(v1[i], v2[i]) {
				in.SetOperand(i, v1[i])
				continue
			}
			sel := ir.NewSelect("sel", g.fid, v1[i], v2[i])
			in.Parent().InsertBefore(sel, in)
			in.SetOperand(i, sel)
			g.stats.Selects++
		}
	}
}

func (g *refGenerator) assignLabelOperands() {
	for _, in := range g.order {
		if !in.IsTerminator() {
			continue
		}
		if tagged, ok := g.clonedFrom[in]; ok {
			for _, i := range in.LabelOperandIndices() {
				in.SetOperand(i, g.mapLabel(tagged.side, in.Operand(i).(*ir.Block)))
			}
			continue
		}
		pair := g.mergedFrom[in]
		idxs := in.LabelOperandIndices()
		l1 := make(map[int]*ir.Block, len(idxs))
		l2 := make(map[int]*ir.Block, len(idxs))
		for _, i := range idxs {
			l1[i] = g.mapLabel(0, pair[0].Operand(i).(*ir.Block))
			l2[i] = g.mapLabel(1, pair[1].Operand(i).(*ir.Block))
		}
		if g.opts.XorBranch && in.IsCondBr() &&
			l1[1] == l2[2] && l1[2] == l2[1] && l1[1] != l1[2] {
			x := ir.NewBinary(ir.OpXor, "xsel", in.Operand(0), g.fid)
			in.Parent().InsertBefore(x, in)
			in.SetOperand(0, x)
			in.SetOperand(1, l2[1])
			in.SetOperand(2, l2[2])
			g.stats.XorRewrites++
			continue
		}
		for _, i := range idxs {
			if l1[i] == l2[i] {
				in.SetOperand(i, l1[i])
				continue
			}
			sel := g.merged.NewBlockIn("lsel")
			sel.Append(ir.NewCondBr(g.fid, l1[i], l2[i]))
			g.inheritOrigin(sel, in.Parent())
			in.SetOperand(i, sel)
			g.stats.LabelSelections++
		}
	}
}

func (g *refGenerator) mapLabel(k int, ob *ir.Block) *ir.Block {
	b, ok := g.vmap[k][ob]
	if !ok {
		panic(fmt.Sprintf("core: unmapped label %%%s", ob.Name()))
	}
	return b.(*ir.Block)
}

func (g *refGenerator) inheritOrigin(b, src *ir.Block) {
	for k := 0; k < 2; k++ {
		if ob := g.origin[k][src]; ob != nil {
			g.origin[k][b] = ob
		}
	}
}

func (g *refGenerator) createLandingBlocks() {
	for _, in := range g.order {
		if in.Op() != ir.OpInvoke {
			continue
		}
		unwind := in.UnwindDest()
		pad := g.merged.NewBlockIn("lpad")
		g.inheritOrigin(pad, in.Parent())
		cleanup := false
		var origPads []*ir.Instruction
		if tagged, ok := g.clonedFrom[in]; ok {
			origPads = append(origPads, origLandingPad(tagged.orig))
		} else {
			pair := g.mergedFrom[in]
			origPads = append(origPads, origLandingPad(pair[0]), origLandingPad(pair[1]))
		}
		for _, op := range origPads {
			cleanup = cleanup || op.Cleanup
		}
		lp := ir.NewLandingPad("lp", cleanup)
		pad.Append(lp)
		for _, op := range origPads {
			if slot, ok := g.padSlot[op]; ok {
				pad.Append(ir.NewStore(lp, slot))
			}
		}
		pad.Append(ir.NewBr(unwind))
		in.SetOperand(in.NumOperands()-1, pad)
	}
}

func (g *refGenerator) assignPhiIncomings() {
	for _, np := range g.phis {
		tag := g.phiOrigin[np]
		orig := tag.orig
		for _, q := range np.Parent().Preds() {
			var mv ir.Value
			if c := g.origin[tag.side][q]; c != nil {
				if v, ok := orig.IncomingFor(c); ok {
					mv = g.resolveAtBlockEnd(tag.side, v, q)
				}
			}
			if mv == nil {
				mv = ir.NewUndef(orig.Type())
			}
			np.AddIncoming(mv, q)
		}
	}
}

func (g *refGenerator) resolveAtBlockEnd(k int, v ir.Value, q *ir.Block) ir.Value {
	if in, ok := v.(*ir.Instruction); ok {
		if _, mapped := g.vmap[k][in]; !mapped && in.Op() == ir.OpLandingPad {
			return g.padLoad(in, func(ld *ir.Instruction) {
				q.InsertBefore(ld, q.Term())
			})
		}
	}
	return g.resolve(k, v, nil)
}

func (g *refGenerator) repairSSA() {
	f := g.merged
	dt := analysis.NewDomTree(f)

	// Offenses in the shape buildSSA takes: def numbers the definition
	// in defOrder.
	offenders := map[*ir.Instruction][]offense{}
	num := map[*ir.Instruction]int32{}
	var defOrder []*ir.Instruction
	for _, b := range f.Blocks {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumOperands(); i++ {
				def, ok := in.Operand(i).(*ir.Instruction)
				if !ok {
					continue
				}
				if dt.DominatesUse(def, in, i) {
					continue
				}
				if _, seen := offenders[def]; !seen {
					num[def] = int32(len(defOrder))
					defOrder = append(defOrder, def)
				}
				offenders[def] = append(offenders[def], offense{def: num[def], user: in, idx: i})
			}
		}
	}
	if len(defOrder) == 0 {
		g.promoteAndFold()
		return
	}
	g.stats.RepairedDefs = len(defOrder)

	classes := g.coalesce(defOrder)

	// SSA construction over the classes is the family generator's own
	// (ssaScratch.buildSSA): what this copy pins is everything around it.
	var offs []offense
	for _, def := range defOrder {
		offs = append(offs, offenders[def]...)
	}
	byIndex := make([][]int, len(classes))
	for c, class := range classes {
		for _, def := range class {
			byIndex[c] = append(byIndex[c], int(num[def]))
		}
	}
	new(ssaScratch).buildSSA(f, dt, defOrder, byIndex, offs)
	g.promoteAndFold()
}

func (g *refGenerator) promoteAndFold() {
	transform.Mem2Reg(g.merged)
	dt := analysis.NewDomTree(g.merged)
	for {
		n := transform.RemoveDuplicatePhis(g.merged)
		n += transform.FoldInstructions(g.merged)
		n += transform.RemoveTrivialPhis(g.merged, dt)
		if n == 0 {
			return
		}
	}
}

func (g *refGenerator) coalesce(defs []*ir.Instruction) [][]*ir.Instruction {
	if !g.opts.PhiCoalescing {
		out := make([][]*ir.Instruction, len(defs))
		for i, d := range defs {
			out[i] = []*ir.Instruction{d}
		}
		return out
	}
	side := func(d *ir.Instruction) int {
		b := d.Parent()
		o0 := g.origin[0][b] != nil
		o1 := g.origin[1][b] != nil
		switch {
		case o0 && !o1:
			return 0
		case o1 && !o0:
			return 1
		default:
			return -1
		}
	}
	var s0, s1 []*ir.Instruction
	var shared []*ir.Instruction
	for _, d := range defs {
		switch side(d) {
		case 0:
			s0 = append(s0, d)
		case 1:
			s1 = append(s1, d)
		default:
			shared = append(shared, d)
		}
	}
	userBlocks := func(d *ir.Instruction) map[*ir.Block]bool {
		ub := map[*ir.Block]bool{}
		for _, u := range ir.UsesOf(d) {
			ub[u.User.Parent()] = true
		}
		return ub
	}
	ub0 := make([]map[*ir.Block]bool, len(s0))
	for i, d := range s0 {
		ub0[i] = userBlocks(d)
	}
	type cand struct {
		i, j    int
		overlap int
	}
	var cands []cand
	for i, d0 := range s0 {
		for j, d1 := range s1 {
			if !ir.TypesEqual(d0.Type(), d1.Type()) {
				continue
			}
			ov := 0
			for _, u := range ir.UsesOf(d1) {
				if ub0[i][u.User.Parent()] {
					ov++
				}
			}
			cands = append(cands, cand{i: i, j: j, overlap: ov})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].overlap > cands[b].overlap })
	used0 := make([]bool, len(s0))
	used1 := make([]bool, len(s1))
	var classes [][]*ir.Instruction
	for _, c := range cands {
		if used0[c.i] || used1[c.j] {
			continue
		}
		used0[c.i] = true
		used1[c.j] = true
		classes = append(classes, []*ir.Instruction{s0[c.i], s1[c.j]})
		g.stats.CoalescedPairs++
	}
	for i, d := range s0 {
		if !used0[i] {
			classes = append(classes, []*ir.Instruction{d})
		}
	}
	for j, d := range s1 {
		if !used1[j] {
			classes = append(classes, []*ir.Instruction{d})
		}
	}
	for _, d := range shared {
		classes = append(classes, []*ir.Instruction{d})
	}
	return classes
}
