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
	"fmt"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/transform"
)

// slotRepair is repairSSA by the paper: demotion, then promoteAndFold.
func (g *generator) slotRepair() {
	promoteAndFold(g.merged, g.demoteOffenders(), nil)
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
	classes, _, _ := g.coalesceSpec(defs, s)
	for _, class := range classes {
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

// coalesceSpec is coalesce stated naively, the specification it is held
// to: every pair of same-typed definitions exclusive to two different
// members, members mi < mj and then their definitions in order, stably
// sorted by descending overlap — how many of the second's uses sit in a
// row one of the first's users does — and taken greedily: a pair joins
// its two classes if they are different and have no member in common.
// It returns the classes (those made, in the order they were made, then
// the definitions left alone, member by member, then those exclusive to
// no member), the pairs it took and the pairs that share a row. s is a
// numbered scan of g's body (findOffenses), read through rowOf.
func (g *generator) coalesceSpec(defs []*ir.Instruction, s *ssaScratch) (classes [][]int, taken, sharing int) {
	if !g.opts.PhiCoalescing || g.k > 64 {
		for d := range defs {
			classes = append(classes, []int{d})
		}
		return classes, 0, 0
	}
	// member[d] is the one member whose code alone runs d's block, or -1.
	member := make([]int, len(defs))
	for d, def := range defs {
		var owners []int
		for j := 0; j < g.k; j++ {
			if g.originOf(j, def.Parent()) != nil {
				owners = append(owners, j)
			}
		}
		member[d] = -1
		if len(owners) == 1 {
			member[d] = owners[0]
		}
	}
	type pair struct{ a, b, overlap int }
	var pairs []pair
	for mi := 0; mi < g.k; mi++ {
		for mj := mi + 1; mj < g.k; mj++ {
			for a := range defs {
				if member[a] != mi {
					continue
				}
				rows := map[int32]bool{}
				for _, u := range ir.UsesOf(defs[a]) {
					rows[s.rowOf(u.User)] = true
				}
				for b := range defs {
					if member[b] != mj || !ir.TypesEqual(defs[a].Type(), defs[b].Type()) {
						continue
					}
					ov := 0
					for _, u := range ir.UsesOf(defs[b]) {
						if rows[s.rowOf(u.User)] {
							ov++
						}
					}
					if ov > 0 {
						sharing++
					}
					pairs = append(pairs, pair{a, b, ov})
				}
			}
		}
	}
	slices.SortStableFunc(pairs, func(x, y pair) int { return cmp.Compare(y.overlap, x.overlap) })
	type class struct {
		defs    []int
		members uint64
		dead    bool
	}
	var made []*class
	classOf := make([]*class, len(defs))
	members := func(d int) uint64 {
		if c := classOf[d]; c != nil {
			return c.members
		}
		return 1 << member[d]
	}
	for _, p := range pairs {
		ca, cb := classOf[p.a], classOf[p.b]
		if ca != nil && ca == cb || members(p.a)&members(p.b) != 0 {
			continue
		}
		if ca == nil {
			ca = &class{defs: []int{p.a}, members: members(p.a)}
			classOf[p.a] = ca
			made = append(made, ca)
		}
		joining := []int{p.b}
		if cb != nil {
			joining = cb.defs
			cb.dead = true
		}
		ca.members |= members(p.b)
		ca.defs = append(ca.defs, joining...)
		for _, d := range joining {
			classOf[d] = ca
		}
		taken++
	}
	for _, c := range made {
		if !c.dead {
			classes = append(classes, c.defs)
		}
	}
	for j := 0; j < g.k; j++ {
		for d := range defs {
			if member[d] == j && classOf[d] == nil {
				classes = append(classes, []int{d})
			}
		}
	}
	for d := range defs {
		if member[d] < 0 {
			classes = append(classes, []int{d})
		}
	}
	return classes, taken, sharing
}

// checkCoalesce holds coalesce to coalesceSpec on g's unrepaired body:
// the same classes, in the same order, from as many pairs taken. It
// returns the scratch coalesce ran in.
func (g *generator) checkCoalesce() (*ssaScratch, error) {
	s := new(ssaScratch)
	defs, _ := s.findOffenses(g, analysis.NewDomTree(g.merged))
	stats := g.stats
	got := slices.Clone(g.coalesce(defs, s))
	taken := g.stats.CoalescedPairs - stats.CoalescedPairs
	g.stats = stats
	want, wantTaken, _ := g.coalesceSpec(defs, s)
	if !slices.EqualFunc(got, want, slices.Equal[[]int]) || taken != wantTaken {
		return s, fmt.Errorf("coalesce took %d pairs into classes %v, the specification %d into %v", taken, got, wantTaken, want)
	}
	return s, nil
}

// typesetPair returns the unrepaired body of the pair of paper-suites'
// typeset program (MiBench's profile, its function count divided by 3)
// with the most offending definitions: 827, where every type-equal pair
// of two members numbers 113,446 and 257 share a user row.
func typesetPair(tb testing.TB) *generator {
	tb.Helper()
	p, _ := synth.ByName(synth.MiBench(), "typeset")
	p.Funcs /= 3
	m := synth.Generate(p)
	g, err := unrepaired(m, []*ir.Function{m.FuncByName("typeset_u074"), m.FuncByName("typeset_t01_m1")}, "merged", DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestCoalesceTypeset holds coalesce to its specification on the typeset
// pair, and its candidate list to the pairs that share a row: the list
// of every type-equal pair was 440 times as long.
func TestCoalesceTypeset(t *testing.T) {
	g := typesetPair(t)
	s, err := g.checkCoalesce()
	if err != nil {
		t.Fatal(err)
	}
	_, taken, sharing := g.coalesceSpec(s.defs, s)
	t.Logf("%d offending definitions, %d pairs taken, %d share a row; candidate list capacity %d", len(s.defs), taken, sharing, cap(s.cands))
	if cap(s.cands) > 2*sharing {
		t.Errorf("candidate list capacity %d, want at most twice the %d pairs that share a row", cap(s.cands), sharing)
	}
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
	t := getTables()
	items, err := alignFamilyCtx(context.Background(), fns, opts, &stats, t)
	if err != nil {
		return nil, err
	}
	return generate(m, fns, name, items, plan, opts, t), nil
}

// generate runs the code generator over the rows items of fns up to SSA
// repair, in the tables t the rows live in.
func generate(m *ir.Module, fns []*ir.Function, name string, items []famItem, plan *ParamPlan, opts Options, t *genTables) *generator {
	g := newGenerator(m, fns, name, plan, opts, t)
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
// specification. Before the first repair it holds coalescing to its
// specification (checkCoalesce). fns must be mergeable (same return
// type, not variadic).
func MergeBothRepairs(fns []*ir.Function, opts Options) (got, spec *ir.Function, err error) {
	g, err := unrepaired(ir.NewModule(), fns, "merged", opts)
	if err != nil {
		return nil, nil, err
	}
	if _, err := g.checkCoalesce(); err != nil {
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
