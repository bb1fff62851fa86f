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
// lock.

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
	// the session — built by the first check that needs it, kept current
	// at the mutation points (record, drop, touch) — but between runs the
	// caller owns the module and edits it need not report are not to be
	// trusted (the reason validMembers re-reads every thunk). So each
	// run's first check re-reads the module functions whose edit stamp
	// (ir.Function.Edits) moved since the index last read them, and
	// forgets those that left the module: O(functions), not O(module
	// instructions). refsFresh says this run's check did.
	refs      *refIndex
	refsFresh bool
	// refBuilds and refRereads count index builds and the functions
	// re-read at a run's first check, for the tests that pin them.
	refBuilds, refRereads int
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
		s.refs.read(f)
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
	// stamps[f] is module function f's edit stamp when the index last
	// read it.
	stamps map[*ir.Function]uint32
}

// index returns the session's reference index: built on first use in
// one pass over the module and the registry's bodies, and brought up to
// date with the module's edit stamps at each run's first use.
func (s *familySet) index(m *ir.Module) *refIndex {
	switch {
	case s.refs == nil:
		s.refBuilds++
		s.refs = &refIndex{map[*ir.Function]map[*ir.Function]bool{}, map[*ir.Function][]*ir.Function{}, map[*ir.Function]uint32{}}
		for _, f := range m.Funcs {
			s.refs.read(f)
		}
		for _, fam := range s.byHead {
			for _, mb := range fam.members {
				s.refs.add(mb.body, true)
			}
		}
	case !s.refsFresh:
		for f := range s.refs.stamps {
			if f.Parent() != m {
				s.refs.forget(f)
			}
		}
		for _, f := range m.Funcs {
			if at, ok := s.refs.stamps[f]; !ok || at != f.Edits() {
				s.refRereads++
				s.refs.forget(f)
				s.refs.read(f)
			}
		}
	}
	s.refsFresh = true
	return s.refs
}

// read indexes module function f as it stands.
func (x *refIndex) read(f *ir.Function) {
	x.add(f, false)
	x.stamps[f] = f.Edits()
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
	delete(x.stamps, holder)
}

// isHead reports whether f heads a recorded family (never, in the nil
// set of a session without family tracking).
func (s *familySet) isHead(f *ir.Function) bool {
	if s == nil {
		return false
	}
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
// best is the walk row's retained trial, if any. Built in place — in a
// dry run as in a committing one — its merged body sits in m without
// having gone through a commit, and it can carry a head reference
// copied out of a member thunk — excused by name there, not in the
// copy — so the index holds it for this check.
func hasExternalCallers(m *ir.Module, families *familySet, fam *family, best *trial) bool {
	if fam == nil {
		return false
	}
	refs := families.index(m)
	if best != nil {
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

// memberPlan describes the members one merge commits: merge srcs
// (original bodies in fid order) into a fresh head, rewrite the live
// functions named names to thunk into it, and remove the consumed
// heads. A flatten (flattenFor) unites a family's stored bodies with a
// newcomer or another family; a pairwise merge is a family of two live
// newcomers with no heads (pairPlan).
type memberPlan struct {
	// srcs are the merge inputs in fid order: stored original bodies
	// for existing members, live module functions for newcomers.
	srcs []*ir.Function
	// names[i] is the live function that becomes srcs[i]'s thunk.
	names []string
	// newcomer[i] reports whether srcs[i] is a live newcomer, whose body
	// moves into the registry before it is thunked.
	newcomer []bool
	// heads are the consumed family heads, removed at commit.
	heads []*ir.Function
	// pplan is the parameter plan shared by generator and thunks.
	pplan *core.ParamPlan
}

// pairPlan is the member plan of the pairwise merge of f1 and f2.
func pairPlan(f1, f2 *ir.Function) *memberPlan {
	pplan, err := core.PlanParams(f1, f2)
	if err != nil {
		panic(fmt.Sprintf("driver: committed merge has invalid plan: %v", err))
	}
	return &memberPlan{
		srcs:     []*ir.Function{f1, f2},
		names:    []string{f1.Name(), f2.Name()},
		newcomer: []bool{true, true},
		pplan:    pplan,
	}
}

// member returns the live function that becomes member i's thunk: a
// newcomer is its own source, an existing member's thunk is found by
// name (validMembers checked it is there).
func (mp *memberPlan) member(m *ir.Module, i int) *ir.Function {
	if mp.newcomer[i] {
		return mp.srcs[i]
	}
	return m.FuncByName(mp.names[i])
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
func flattenFor(m *ir.Module, families *familySet, maxFamily int, f1, f2 *ir.Function, best *trial) *memberPlan {
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
	fp := &memberPlan{}
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

// MergedFamilyName returns the collision-free name for merging the
// named family into m: "merged.<n0>.<n1>..." with a numeric suffix when
// taken. The facade's MergeFamily shares it so hand-picked families and
// driver flattenings never diverge on naming.
func MergedFamilyName(m *ir.Module, names []string) string {
	return freshName(m, familyBaseName(names), nil)
}

// planFlattenTrial builds the k-ary merged function for a flatten plan
// in m, like a pair trial (planTrial), and prices it: profit compares
// every live function the flatten touches (heads, member thunks,
// newcomers) against the fresh body plus k int-fid thunks. The runner
// discards the function unless it commits it.
func planFlattenTrial(ctx context.Context, m *ir.Module, fp *memberPlan, name string, cfg Config) *trial {
	t := &trial{family: fp}
	t0, a0 := time.Now(), heapAllocs()
	merged, stats, err := core.MergeFamilyWithPlanCtx(ctx, m, fp.srcs, name, fp.pplan, cfg.CoreOptions())
	if err != nil {
		t.codegenTime, t.allocBytes = time.Since(t0), heapAllocs()-a0
		t.err = err
		return t
	}
	s0 := time.Now()
	transform.Simplify(merged)
	t.simplifyTime = time.Since(s0)
	t.codegenTime, t.allocBytes = time.Since(t0), heapAllocs()-a0
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
