package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/ir"
)

// Options configures a SalSSA merge.
type Options struct {
	// PhiCoalescing enables the paper's §4.4 optimisation: disjoint
	// definitions repaired by SSA reconstruction share one variable (the
	// paper's shared slot), removing
	// superfluous phi-nodes and select instructions. Disable to obtain
	// the SalSSA-NoPC variant of Figure 20.
	PhiCoalescing bool
	// XorBranch enables the Figure 11 rewrite of conditional branches
	// with swapped label operands (two label selections traded for one
	// xor). It applies to two-member families only — the rewrite is
	// specific to the i1 identifier.
	XorBranch bool
	// Align configures the sequence alignment.
	Align align.Options
}

// DefaultOptions enables every SalSSA feature.
func DefaultOptions() Options {
	return Options{
		PhiCoalescing: true,
		XorBranch:     true,
		Align:         align.DefaultOptions(),
	}
}

// Stats reports what the code generator did; the evaluation harness and
// the ablation benchmarks consume these.
type Stats struct {
	// Alignment outcome. For families beyond two members the counts
	// accumulate over the progressive alignment rounds and MatrixBytes
	// sums the per-round DP matrices.
	Matches      int
	InstrMatches int
	MatrixBytes  int64
	// Operand assignment. Selects counts fid-selects (including the
	// entries of k=3 select chains); SwitchPhis counts operands resolved
	// through a switch-fed phi (k >= 4 families).
	Selects         int
	LabelSelections int
	SwitchPhis      int
	XorRewrites     int
	OperandSwaps    int
	// SSA repair.
	RepairedDefs   int
	CoalescedPairs int
	PadSlots       int
	// Where the generator's time went: BuildTime up to the last phi
	// incoming (CFG, operand assignment, landing blocks), RepairTime in
	// SSA repair — SSA construction over the offending definitions,
	// landingpad promotion and the phi/select folds. Alignment is on
	// neither clock.
	BuildTime, RepairTime time.Duration
}

// Merge builds the SalSSA-merged function of f1 and f2 (in module m)
// under the given name. On success the merged function has been added to
// m and verifies; f1 and f2 are left untouched (the caller decides
// whether to commit by building thunks, or to roll back by removing the
// merged function — SalSSA needs no other bookkeeping, unlike FMSA whose
// demotion residue affects every function it touches).
func Merge(m *ir.Module, f1, f2 *ir.Function, name string, opts Options) (*ir.Function, *Stats, error) {
	// Check signature compatibility before paying for the quadratic
	// alignment; the plan is threaded through to the generator so it is
	// computed exactly once.
	plan, err := PlanParams(f1, f2)
	if err != nil {
		return nil, nil, err
	}
	pair := []*ir.Function{f1, f2}
	if err := checkFamily(pair); err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	res, err := align.AlignFunctionsCtx(ctx, f1, f2, opts.Align)
	if err != nil {
		return nil, nil, err
	}
	return MergePairWithPlanCtx(ctx, m, pair, name, res, plan, opts)
}

// MergeFamily builds one merged function serving every member of fns
// behind a function identifier: the k-ary generalization of Merge. The
// two-member case is exactly Merge (i1 identifier, identical output);
// beyond two the members are aligned progressively and dispatched on an
// integer identifier. fns are left untouched.
func MergeFamily(m *ir.Module, fns []*ir.Function, name string, opts Options) (*ir.Function, *Stats, error) {
	plan, err := PlanParams(fns...)
	if err != nil {
		return nil, nil, err
	}
	return MergeFamilyWithPlanCtx(context.Background(), m, fns, name, plan, opts)
}

// MergeFamilyWithPlanCtx is MergeFamily for callers that already hold
// the family's ParamPlan (the driver and the facade plan it for thunk
// construction anyway), with cancellation polled inside every alignment
// round and between code-generation phases.
func MergeFamilyWithPlanCtx(ctx context.Context, m *ir.Module, fns []*ir.Function, name string, plan *ParamPlan, opts Options) (*ir.Function, *Stats, error) {
	if err := checkFamily(fns); err != nil {
		return nil, nil, err
	}
	var stats Stats
	t := getTables()
	items, err := alignFamilyCtx(ctx, fns, opts, &stats, t)
	if err != nil {
		t.release()
		return nil, nil, err
	}
	return mergeItems(ctx, m, fns, name, items, plan, opts, stats, t)
}

// checkFamily rejects families no generator path accepts.
func checkFamily(fns []*ir.Function) error {
	if len(fns) < 2 {
		return fmt.Errorf("core: a merge family needs at least two functions")
	}
	for i, f := range fns {
		if f.IsDecl() {
			return fmt.Errorf("core: cannot merge declarations")
		}
		for j := i + 1; j < len(fns); j++ {
			if f == fns[j] {
				return fmt.Errorf("core: cannot merge a function with itself")
			}
		}
	}
	return nil
}

// MergeAlignedCtx is Merge with a precomputed alignment (the benchmark
// harness times alignment and code generation separately) and with
// cancellation between the code generator's phases; on cancellation the
// partial merged function is removed from m.
func MergeAlignedCtx(ctx context.Context, m *ir.Module, f1, f2 *ir.Function, name string, res *align.Result, opts Options) (*ir.Function, *Stats, error) {
	plan, err := PlanParams(f1, f2)
	if err != nil {
		return nil, nil, err
	}
	return MergePairWithPlanCtx(ctx, m, []*ir.Function{f1, f2}, name, res, plan, opts)
}

// MergePairWithPlanCtx is MergeAlignedCtx for callers that already hold
// the pair, as a two-function slice the generator keeps, and its
// ParamPlan (the driver plans it once for the generator and the
// thunks).
func MergePairWithPlanCtx(ctx context.Context, m *ir.Module, pair []*ir.Function, name string, res *align.Result, plan *ParamPlan, opts Options) (*ir.Function, *Stats, error) {
	if err := checkFamily(pair); err != nil {
		return nil, nil, err
	}
	stats := Stats{
		Matches:      res.Matches,
		InstrMatches: res.InstrMatches,
		MatrixBytes:  res.MatrixBytes,
	}
	t := getTables()
	return mergeItems(ctx, m, pair, name, pairItems(res, t), plan, opts, stats, t)
}

// pairItems turns a pairwise alignment into the generator's rows, in t.
func pairItems(res *align.Result, t *genTables) []famItem {
	t.items = resize(t.items, len(res.Pairs))
	t.ents = resize(t.ents, 2*len(res.Pairs))
	items, ents := t.items, t.ents
	for i, p := range res.Pairs {
		ents[2*i], ents[2*i+1] = p.A, p.B
		items[i] = famItem{ents: ents[2*i : 2*i+2 : 2*i+2]}
	}
	return items
}

// mergeItems runs the code generator over an item list (one row per
// aligned label/instruction across the family), working in t, which it
// gives back.
func mergeItems(ctx context.Context, m *ir.Module, fns []*ir.Function, name string, items []famItem, plan *ParamPlan, opts Options, stats Stats, t *genTables) (*ir.Function, *Stats, error) {
	g := newGenerator(m, fns, name, plan, opts, t)
	defer g.release()
	g.stats.Matches = stats.Matches
	g.stats.InstrMatches = stats.InstrMatches
	g.stats.MatrixBytes = stats.MatrixBytes
	if err := g.run(ctx, items); err != nil {
		// The partial body holds no operand of the originals — buildCFG
		// copies instructions without operands, and the pad slots sit in
		// the entry before any phase can be cancelled — but Release
		// panics on a body that is not self-contained, so any operand
		// the body does not own is still pointed at undef first.
		m.RemoveFunc(g.merged)
		g.merged.Instrs(func(in *ir.Instruction) bool {
			for i, v := range in.Operands() {
				if !ownedBy(v, g.merged) {
					in.SetOperand(i, ir.NewUndef(v.Type()))
				}
			}
			return true
		})
		ir.Release(g.merged)
		return nil, nil, err
	}
	return g.merged, &g.stats, nil
}

// ownedBy reports whether v is f's own or tracks no uses: anything but
// an argument, block or instruction of another function.
func ownedBy(v ir.Value, f *ir.Function) bool {
	switch x := v.(type) {
	case *ir.Instruction:
		return x.Parent() != nil && x.Parent().Parent() == f
	case *ir.Argument:
		return x.Parent() == f
	case *ir.Block:
		return x.Parent() == f
	}
	return true
}
