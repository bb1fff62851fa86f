package driver

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/transform"
)

// The merge-family machinery: instead of nesting — re-merging a merged
// function with its next partner, stacking a boolean fid, a thunk hop
// and a layer of selects per round — the driver re-merges the family's
// original bodies plus the newcomer into one fresh k-ary function and
// rewrites every member thunk to target it. The familySet remembers,
// per merged head, the original bodies that made it, each moved into a
// detached function of its own just before its live definition became
// a thunk (so the originals exist nowhere else). Everything here runs
// serially: the loop, committing or dry, and Apply all hold the session
// lock, and capture workers (components.go) leave every row with a
// family head in it to the loop.

// familyMember is one original behind a merged head: the live (thunk)
// function's name and the detached function holding the body it had
// before it was consumed (ir.Function.DetachBody).
type familyMember struct {
	name string
	body *ir.Function
}

// family is the record behind one merged head function.
type family struct {
	head    *ir.Function
	members []familyMember
}

// familySet tracks the merge families of one session, keyed by head.
type familySet struct {
	byHead map[*ir.Function]*family
	// refs is the reference index behind the caller check. It lives for
	// one run — built by the first check that needs it, kept current at
	// the run's own mutation points (record, drop, touch) — because
	// between runs the caller owns the module and unreported edits are
	// not to be trusted: the reason validMembers re-reads every thunk.
	refs *refIndex
	// refBuilds counts index builds, for the tests that pin one per run.
	refBuilds int
}

func newFamilySet() *familySet {
	return &familySet{byHead: map[*ir.Function]*family{}}
}

// record registers merged as the head of a family.
func (s *familySet) record(head *ir.Function, members []familyMember) {
	s.byHead[head] = &family{head: head, members: members}
	if s.refs != nil {
		for _, mb := range members {
			s.refs.add(mb.body, true)
		}
	}
}

// drop forgets the family headed by f (no-op for non-heads, nil-safe).
func (s *familySet) drop(f *ir.Function) {
	if s == nil {
		return
	}
	if fam := s.byHead[f]; fam != nil && s.refs != nil {
		for _, mb := range fam.members {
			s.refs.forget(mb.body)
		}
	}
	delete(s.byHead, f)
}

// touch tells the run's reference index that f was rewritten, added to
// m or removed from it. Nil-safe, and free until an index exists.
func (s *familySet) touch(m *ir.Module, f *ir.Function) {
	if s == nil || s.refs == nil {
		return
	}
	s.refs.forget(f)
	if f.Parent() == m {
		s.refs.add(f, false)
	}
}

// refIndex answers "who holds an operand that is this function" without
// walking the module (functions do not track their uses):
// holders[target][holder] exists for every live module function and
// every stored registry body (flagged true) with an instruction
// operand identical to target.
type refIndex struct {
	holders map[*ir.Function]map[*ir.Function]bool
	// targets[holder] lists what holder was indexed under, for forget.
	targets map[*ir.Function][]*ir.Function
}

// index returns the run's reference index, building it on first use in
// one pass over the module and the registry's bodies.
func (s *familySet) index(m *ir.Module) *refIndex {
	if s.refs == nil {
		s.refBuilds++
		s.refs = &refIndex{map[*ir.Function]map[*ir.Function]bool{}, map[*ir.Function][]*ir.Function{}}
		for _, f := range m.Funcs {
			s.refs.add(f, false)
		}
		for _, fam := range s.byHead {
			for _, mb := range fam.members {
				s.refs.add(mb.body, true)
			}
		}
	}
	return s.refs
}

// add indexes every function operand of holder's current body.
func (x *refIndex) add(holder *ir.Function, stored bool) {
	holder.Instrs(func(in *ir.Instruction) bool {
		for _, op := range in.Operands() {
			target, ok := op.(*ir.Function)
			if !ok {
				continue
			}
			if x.holders[target] == nil {
				x.holders[target] = map[*ir.Function]bool{}
			}
			if _, seen := x.holders[target][holder]; !seen {
				x.holders[target][holder] = stored
				x.targets[holder] = append(x.targets[holder], target)
			}
		}
		return true
	})
}

// forget drops holder from the index.
func (x *refIndex) forget(holder *ir.Function) {
	for _, target := range x.targets[holder] {
		delete(x.holders[target], holder)
	}
	delete(x.targets, holder)
}

// isHead reports whether f heads a recorded family.
func (s *familySet) isHead(f *ir.Function) bool {
	_, ok := s.byHead[f]
	return ok
}

// validMembers returns the family behind f after checking it is intact:
// the head is still defined in m under its own name and every member's
// live definition is still a thunk into it. A broken family (the caller
// rewrote a thunk, replaced the head, ...) is dropped and nil is
// returned — the pair then merges pairwise, the historical behaviour.
func (s *familySet) validMembers(m *ir.Module, f *ir.Function) *family {
	fam, ok := s.byHead[f]
	if !ok {
		return nil
	}
	if m.FuncByName(f.Name()) != f {
		s.drop(f)
		return nil
	}
	for _, mb := range fam.members {
		live := m.FuncByName(mb.name)
		if live == nil || !isThunkTo(live, f) {
			s.drop(f)
			return nil
		}
	}
	return fam
}

// sizes returns the family-size histogram (member count -> families).
func (s *familySet) sizes() map[int]int {
	if len(s.byHead) == 0 {
		return nil
	}
	out := map[int]int{}
	for _, fam := range s.byHead {
		out[len(fam.members)]++
	}
	return out
}

// isThunkTo reports whether f's body is a single-block forward to head.
func isThunkTo(f, head *ir.Function) bool {
	if len(f.Blocks) != 1 {
		return false
	}
	for _, in := range f.Blocks[0].Instrs() {
		if in.Op() == ir.OpCall && in.Callee() == ir.Value(head) {
			return true
		}
	}
	return false
}

// hasExternalCallers reports whether anything outside fam's own member
// thunks references fam.head: a stray live caller (user code calling a
// generated merged function by hand), or — equally fatal — another
// family's stored original body, which a later flatten would
// re-merge into a call of the removed head. Either vetoes flattening
// for this family. A reference is an operand identical to the head; a
// live holder is excused iff it is the head or carries a member's name,
// a stored body iff it is the family's own (those predate the head).
//
// best is the walk row's retained trial, if any. Built in place, its
// merged body sits in m without having gone through a commit, and it
// can carry a head reference copied out of a member thunk — excused by
// name there, not in the copy — so the index holds it for this check.
func hasExternalCallers(m *ir.Module, families *familySet, fam *family, best *trial) bool {
	if fam == nil {
		return false
	}
	refs := families.index(m)
	if best != nil && best.scratch == nil {
		refs.add(best.merged, false)
		defer refs.forget(best.merged)
	}
	found := false
holders:
	for h, stored := range refs.holders[fam.head] {
		if !stored && h == fam.head {
			continue
		}
		for _, mb := range fam.members {
			if stored && mb.body == h || !stored && mb.name == h.Name() {
				continue holders
			}
		}
		found = true
		break
	}
	if callerCheckHook != nil {
		callerCheckHook(m, families, fam, found)
	}
	return found
}

// callerCheckHook, when a test sets it, sees every caller-check verdict.
var callerCheckHook func(m *ir.Module, families *familySet, fam *family, got bool)

// flattenPlan describes one family flattening: merge srcs (original
// bodies in fid order) into a fresh k-ary head, rewrite the live
// functions named names to thunk into it, and remove the consumed
// heads.
type flattenPlan struct {
	// srcs are the merge inputs in fid order: stored original bodies
	// for existing members, live module functions for newcomers.
	srcs []*ir.Function
	// names[i] is the live function that becomes srcs[i]'s thunk.
	names []string
	// newcomer[i] reports whether srcs[i] is a live newcomer whose body
	// moves into the registry before it is thunked.
	newcomer []bool
	// heads are the consumed family heads, removed at commit.
	heads []*ir.Function
	// pplan is the k-ary parameter plan shared by generator and thunks.
	pplan *core.ParamPlan
}

// familyCandidate reports whether merging f1 and f2 could involve a
// recorded family, without the validation, module reads and reference
// index build flattenFor performs. Capture workers skip rows with such
// a pair — the loop decides them with the full flattenFor — and a stale
// headship costs only an uncaptured row.
func familyCandidate(families *familySet, maxFamily int, f1, f2 *ir.Function) bool {
	return families != nil && maxFamily >= 3 && (families.isHead(f1) || families.isHead(f2))
}

// flattenFor decides whether merging f1 and f2 should flatten into a
// k-ary family rather than nest: family tracking must be on, at least
// one side must head an intact family, the member union must fit
// MaxFamily and contain no function twice (a member thunk can rank as
// its own family's partner), the heads must have no callers outside
// their thunks, and the united signatures must plan. Any miss returns
// nil and the pair merges pairwise (a head nests, exactly the
// historical chain). best is the row's retained trial, if any (see
// hasExternalCallers).
func flattenFor(m *ir.Module, families *familySet, maxFamily int, f1, f2 *ir.Function, best *trial) *flattenPlan {
	if families == nil || maxFamily < 3 {
		return nil
	}
	fam1 := families.validMembers(m, f1)
	fam2 := families.validMembers(m, f2)
	if fam1 == nil && fam2 == nil {
		return nil
	}
	legs := func(fam *family) int {
		if fam == nil {
			return 1
		}
		return len(fam.members)
	}
	if legs(fam1)+legs(fam2) > maxFamily {
		return nil
	}
	if hasExternalCallers(m, families, fam1, best) || hasExternalCallers(m, families, fam2, best) {
		return nil
	}
	fp := &flattenPlan{}
	add := func(f *ir.Function, fam *family) {
		if fam == nil {
			fp.srcs = append(fp.srcs, f)
			fp.names = append(fp.names, f.Name())
			fp.newcomer = append(fp.newcomer, true)
			return
		}
		fp.heads = append(fp.heads, fam.head)
		for _, mb := range fam.members {
			fp.srcs = append(fp.srcs, mb.body)
			fp.names = append(fp.names, mb.name)
			fp.newcomer = append(fp.newcomer, false)
		}
	}
	add(f1, fam1)
	add(f2, fam2)
	// A duplicate name means one side's newcomer is the other side's
	// member thunk: flattening would rewrite that function twice and
	// bake a call to the removed head into the merged body. Nest.
	seen := make(map[string]bool, len(fp.names))
	for _, nm := range fp.names {
		if seen[nm] {
			return nil
		}
		seen[nm] = true
	}
	pplan, err := core.PlanParams(fp.srcs...)
	if err != nil {
		return nil
	}
	fp.pplan = pplan
	return fp
}

// sameNames reports element-wise equality of two name lists.
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// familyBaseName is the merged-function name for a flattened family.
func familyBaseName(names []string) string {
	return "merged." + strings.Join(names, ".")
}

// familyMergedName picks the collision-free name for the flattened
// head, consulting the dry-mode claimed overlay alongside the module.
func familyMergedName(m *ir.Module, names []string, claimed map[string]bool) string {
	base := familyBaseName(names)
	name := base
	for i := 1; m.FuncByName(name) != nil || claimed[name]; i++ {
		name = fmt.Sprintf("%s.%d", base, i)
	}
	return name
}

// MergedFamilyName returns the collision-free name for merging the
// named family into m: "merged.<n0>.<n1>..." with a numeric suffix when
// taken. The facade's MergeFamily shares it so hand-picked families and
// driver flattenings never diverge on naming.
func MergedFamilyName(m *ir.Module, names []string) string {
	return familyMergedName(m, names, nil)
}

// planFlattenTrial builds the k-ary merged function for a flatten plan
// and prices it: profit compares every live function the flatten
// touches (heads, member thunks, newcomers) against the fresh body plus
// k int-fid thunks. Commit-mode trials build in place (the runner
// discards the function on rejection); dry-mode trials build into a
// private scratch module so the real module stays untouched.
func planFlattenTrial(ctx context.Context, m *ir.Module, fp *flattenPlan, name string, inPlace bool, cfg Config) *trial {
	t := &trial{family: fp}
	dst := m
	if !inPlace {
		t.scratch = ir.NewModule()
		dst = t.scratch
	}
	t0 := time.Now()
	merged, stats, err := core.MergeFamilyWithPlanCtx(ctx, dst, fp.srcs, name, fp.pplan, cfg.CoreOptions())
	if err != nil {
		t.codegenTime = time.Since(t0)
		t.err = err
		return t
	}
	s0 := time.Now()
	transform.Simplify(merged)
	t.simplifyTime = time.Since(s0)
	t.codegenTime = time.Since(t0)
	t.merged = merged
	t.stats = *stats
	t.matrixBytes = stats.MatrixBytes
	before := 0
	for _, nm := range fp.names {
		if live := m.FuncByName(nm); live != nil {
			before += costmodel.FuncBytes(live, cfg.Target)
		}
	}
	for _, h := range fp.heads {
		before += costmodel.FuncBytes(h, cfg.Target)
	}
	after := costmodel.FuncBytes(merged, cfg.Target) +
		len(fp.srcs)*costmodel.ThunkBytes(cfg.Target, len(merged.Params()))
	t.profit = before - after
	return t
}

// commitFlatten applies a successful flatten trial: move the
// newcomers' bodies into the registry, rewrite every member's live
// definition into a thunk on the new head, remove the consumed heads
// from the module, and re-register the family under the new head. It
// returns the live functions it rewrote so the walk can mark them
// consumed. retire is the index-invalidation hook (runner.retire or
// Session.retire).
func commitFlatten(m *ir.Module, t *trial, families *familySet, retire func(*ir.Function), markPending func(*ir.Function)) []*ir.Function {
	fp := t.family
	members := make([]familyMember, len(fp.srcs))
	for i, nm := range fp.names {
		if fp.newcomer[i] {
			members[i] = familyMember{name: nm, body: fp.srcs[i].DetachBody()}
		} else {
			members[i] = familyMember{name: nm, body: fp.srcs[i]}
		}
	}
	rewritten := make([]*ir.Function, 0, len(fp.names))
	for i, nm := range fp.names {
		live := m.FuncByName(nm)
		core.BuildThunk(live, t.merged, i, fp.pplan.Maps[i], fp.pplan)
		retire(live)
		rewritten = append(rewritten, live)
	}
	for _, h := range fp.heads {
		// Detached first: retire reports h to the reference index, which
		// re-reads whatever is still in the module.
		m.RemoveFunc(h)
		retire(h)
		families.drop(h)
	}
	families.record(t.merged, members)
	if markPending != nil {
		markPending(t.merged)
	}
	return rewritten
}

// recordPairFamily registers a plain pairwise merge as a two-member
// family so a later run can flatten it. It must run just before the
// commit turns f1 and f2 into thunks: it moves their bodies into the
// registry, leaving both empty. Nest fallbacks (either side already a
// head, or tracking off) are not recorded: a nested chain beyond
// MaxFamily stays a chain.
func recordPairFamily(families *familySet, merged, f1, f2 *ir.Function) {
	if families == nil || families.isHead(f1) || families.isHead(f2) {
		return
	}
	families.record(merged, []familyMember{
		{name: f1.Name(), body: f1.DetachBody()},
		{name: f2.Name(), body: f2.DetachBody()},
	})
}
