// Package core implements SalSSA, the paper's contribution: merging
// functions through sequence alignment with full SSA support —
// generalized from the paper's pairwise setting to k-ary merge families
// (one merged body serving k originals behind a function identifier).
// The code generator works top-down from the input CFGs (one merged
// block per aligned label/instruction, chained per original block),
// assigns operands with fid-indexed resolution (selects for two-member
// families, select chains and switch-fed phis beyond), generalizes
// label selection from the paper's Figure 10 conditional to a switch on
// the identifier, creates landing blocks for invokes, repairs the
// dominance property with the standard SSA construction algorithm, and
// applies phi-node coalescing to minimise the phis and selects
// introduced.
package core

import (
	"fmt"

	"repro/internal/ir"
)

// ParamPlan describes how the parameter lists of a merge family are
// unified. Parameters of equal type are shared across members (greedy,
// in order); leftovers get their own slots. The merged function takes
// the function identifier first, then the unified parameters.
type ParamPlan struct {
	// Ret is the shared return type.
	Ret ir.Type
	// Params are the unified parameter types, excluding fid.
	Params []ir.Type
	// Maps[k][i] is the unified slot of member k's i-th parameter.
	Maps [][]int
}

// PlanParams computes the parameter plan for a merge family, or an
// error when the functions cannot be merged (mismatched return types,
// variadic signatures). Member 0's parameters claim the first slots in
// order; each later member greedily claims the first free slot of equal
// type, so the two-member plan is exactly the historical pairwise one.
func PlanParams(fns ...*ir.Function) (*ParamPlan, error) {
	if len(fns) < 2 {
		return nil, fmt.Errorf("core: a merge family needs at least two functions")
	}
	s0 := fns[0].Sig()
	p := &ParamPlan{Ret: s0.Ret, Maps: make([][]int, len(fns))}
	for j, f := range fns {
		sj := f.Sig()
		if !ir.TypesEqual(s0.Ret, sj.Ret) {
			return nil, fmt.Errorf("core: return types differ (%v vs %v)", s0.Ret, sj.Ret)
		}
		if sj.Variadic {
			return nil, fmt.Errorf("core: variadic functions are not merged")
		}
		used := make([]bool, len(p.Params))
		p.Maps[j] = make([]int, len(sj.Params))
		for i, t := range sj.Params {
			slot := -1
			for s, ts := range p.Params {
				if !used[s] && ir.TypesEqual(t, ts) {
					slot = s
					break
				}
			}
			if slot < 0 {
				slot = len(p.Params)
				p.Params = append(p.Params, t)
				used = append(used, false)
			}
			used[slot] = true
			p.Maps[j][i] = slot
		}
	}
	return p, nil
}

// FidType returns the function-identifier type for a family of k
// members: the historical i1 for two (true selects member 0), an i32
// index beyond.
func FidType(k int) ir.Type {
	if k <= 2 {
		return ir.I1
	}
	return ir.I32
}

// FidConst returns the identifier constant a caller passes to select
// the given member of merged. Two-member families keep the historical
// boolean polarity (true selects member 0); larger families pass the
// member index.
func FidConst(merged *ir.Function, member int) ir.Value {
	if ir.TypesEqual(merged.Param(0).Type(), ir.I1) {
		return ir.Bool(member == 0)
	}
	return ir.NewConstInt(ir.I32, int64(member))
}

// NewMergedShell creates the (empty) merged function for the plan and
// registers it in m. Member j's i-th parameter becomes the merged
// function's parameter plan.Maps[j][i]+1, after the identifier fid.
func NewMergedShell(m *ir.Module, name string, fns []*ir.Function, plan *ParamPlan) (merged *ir.Function, fid *ir.Argument) {
	sig := ir.FuncOf(plan.Ret, append([]ir.Type{FidType(len(fns))}, plan.Params...)...)
	names := make([]string, len(sig.Params))
	names[0] = "fid"
	for i, p := range fns[0].Params() {
		names[plan.Maps[0][i]+1] = p.Name()
	}
	merged = ir.NewFunction(name, sig, names...)
	m.AddFunc(merged)
	return merged, merged.Param(0)
}

// BuildThunk replaces f's body with a forwarding call to merged:
// f(args...) becomes merged(fid, unified args...), passing undef for
// parameters exclusive to other members and the identifier constant
// selecting member (see FidConst).
func BuildThunk(f, merged *ir.Function, member int, slotOf []int, plan *ParamPlan) {
	f.Clear()
	entry := f.NewBlockIn("entry")
	args := make([]ir.Value, 1+len(plan.Params))
	args[0] = FidConst(merged, member)
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
