package core

// The paper's own definition of SSA repair (§4.3, Figures 13–14), kept as
// the specification repairSSA is held to: demote every offending
// definition to a stack slot — one slot per coalescing class — and let
// standard SSA construction (register promotion) re-promote the slots.
// repairSSA builds the same SSA without the memory round trip and with
// pruned phi placement, so its result may only differ from this one by
// phis no use can reach (repair_diff_test.go checks verification,
// behaviour and size over ten thousand bodies).

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/transform"
)

// slotRepair is repairSSA by the paper: demotion, then promoteAndFold.
func (g *generator) slotRepair() {
	promoteAndFold(g.merged, g.demoteOffenders())
}

// demoteOffenders sends every definition that does not dominate all its
// uses through a stack slot, coalesced with the disjoint definitions of
// its class, and returns the dominator tree of the body it leaves.
func (g *generator) demoteOffenders() *analysis.DomTree {
	f := g.merged
	dt := analysis.NewDomTree(f)
	s := new(ssaScratch)
	defs, offenses := s.findOffenses(g, dt)
	if len(defs) == 0 {
		return dt
	}
	g.stats.RepairedDefs = len(defs)
	// Group the offenses by definition, discovery order kept within one:
	// definition d's are offenses[start[d]:start[d+1]].
	slices.SortStableFunc(offenses, func(x, y offense) int { return cmp.Compare(x.def, y.def) })
	start := make([]int32, len(defs)+1)
	for _, off := range offenses {
		start[off.def+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}

	// One load per offending use site, found again by a scan of the
	// class's few loads, so that a fid-indexed resolution whose arms
	// belong to the same class receives the same load repeatedly and
	// folds away.
	type reload struct {
		at *ir.Block       // for a phi use: the incoming block the load ends
		by *ir.Instruction // otherwise: the user the load precedes
		ld *ir.Instruction
	}
	var reloads []reload

	entry := f.Entry()
	for _, class := range g.coalesce(defs, s) {
		slot := ir.NewAlloca("ssa.slot", defs[class[0]].Type())
		entry.InsertAtFront(slot)
		// One store after each definition in the class.
		for _, d := range class {
			def := defs[d]
			st := ir.NewStore(def, slot)
			if def.Op() == ir.OpInvoke {
				nb := transform.SplitInvokeNormalEdge(def)
				nb.InsertAtFront(st)
				dt = nil
			} else if def.IsTerminator() {
				panic("core: repairing a terminator value")
			} else {
				// A phi's store goes after the block's last phi. Right after
				// the phi it would split the group, and a later invoke split
				// retargets only the phis before the first non-phi
				// (transform.SplitInvokeNormalEdge reads Block.Phis), leaving
				// the rest with an edge from a block that is no longer a
				// predecessor.
				at := def
				if def.Op() == ir.OpPhi {
					phis := def.Parent().Phis()
					at = phis[len(phis)-1]
				}
				def.Parent().InsertAfter(st, at)
			}
		}
		reloads = reloads[:0]
		for _, d := range class {
			for _, off := range offenses[start[d]:start[d+1]] {
				var site reload
				if off.user.Op() == ir.OpPhi {
					site.at = off.user.IncomingBlock(off.idx / 2)
				} else {
					site.by = off.user
				}
				for _, r := range reloads {
					if r.at == site.at && r.by == site.by {
						site.ld = r.ld
						break
					}
				}
				if site.ld == nil {
					site.ld = ir.NewLoad("ssa.reload", slot)
					if site.at != nil {
						site.at.InsertBefore(site.ld, site.at.Term())
					} else {
						site.by.Parent().InsertBefore(site.ld, site.by)
					}
					reloads = append(reloads, site)
				}
				off.user.SetOperand(off.idx, site.ld)
			}
		}
	}
	if dt == nil {
		dt = analysis.NewDomTree(f)
	}
	return dt
}

// unrepaired runs the code generator over fns up to SSA repair: the
// merged body is complete but for the dominance repair. The merged
// function joins m under name.
func unrepaired(m *ir.Module, fns []*ir.Function, name string, opts Options) (*generator, error) {
	plan, err := PlanParams(fns...)
	if err != nil {
		return nil, err
	}
	var stats Stats
	items, err := alignFamilyCtx(context.Background(), fns, opts, &stats)
	if err != nil {
		return nil, err
	}
	return generate(m, fns, name, items, plan, opts), nil
}

// generate runs the code generator over the rows items of fns up to SSA
// repair.
func generate(m *ir.Module, fns []*ir.Function, name string, items []famItem, plan *ParamPlan, opts Options) *generator {
	g := newGenerator(m, fns, name, plan, opts)
	g.createPadSlots()
	g.buildCFG(items)
	g.assignValueOperands()
	g.assignLabelOperands()
	g.createLandingBlocks()
	g.assignPhiIncomings()
	return g
}

// clone returns a copy of g over a clone of its body, named name, with
// the pointers SSA repair reads — the generated instructions and their
// diamonds — moved to the clone, so that the copy can be repaired and g
// stays as it is. The block-origin table, keyed by block index, needs no
// moving.
func (g *generator) clone(name string) *generator {
	c := *g
	c.merged, _ = ir.CloneFunction(g.merged, name)
	at := func(in *ir.Instruction) *ir.Instruction {
		return c.merged.Blocks[in.Parent().Index()].Instrs()[in.Index()]
	}
	c.order = slices.Clone(g.order)
	for i := range c.order {
		gi := &c.order[i]
		gi.in = at(gi.in)
		if d := gi.dia; d != nil {
			gi.dia = &diamond{join: c.merged.Blocks[d.join.Index()], dispatch: at(d.dispatch)}
		}
	}
	return &c
}

// MergeBothRepairs builds the merged body of fns twice, into a fresh
// module each: once repaired by repairSSA and once by the slot
// specification. fns must be mergeable (same return type, not
// variadic).
func MergeBothRepairs(fns []*ir.Function, opts Options) (got, spec *ir.Function, err error) {
	g, err := unrepaired(ir.NewModule(), fns, "merged", opts)
	if err != nil {
		return nil, nil, err
	}
	g.repairSSA()
	s, err := unrepaired(ir.NewModule(), fns, "merged", opts)
	if err != nil {
		return nil, nil, err
	}
	s.slotRepair()
	return g.merged, s.merged, nil
}
