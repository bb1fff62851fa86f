package driver

import (
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
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
		if live == nil || ir.Forwardee(live) != f {
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

// hasExternalCallers reports whether anything outside fam's own member
// thunks references fam.head: a stray live caller (user code calling a
// generated merged function by hand), or — equally fatal — another
// family's stored original body, which a later flatten would
// re-merge into a call of the removed head. Either vetoes flattening
// for this family. A reference is an operand identical to the head; a
// live holder is excused iff it is the head or carries a member's name,
// a stored body iff it is the family's own (those predate the head).
// A row's retained trial needs no entry: no trial input is a member thunk.
func hasExternalCallers(m *ir.Module, families *familySet, fam *family) bool {
	if fam == nil {
		return false
	}
	refs := families.index(m)
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
// newcomers with no heads (pairPlan). The plan a trial was built from
// rides on it into the commit-step.
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

// pairPlan is the member plan of the pairwise merge of f1 and f2, or
// the error saying their signatures do not merge.
func pairPlan(f1, f2 *ir.Function) (*memberPlan, error) {
	pplan, err := core.PlanParams(f1, f2)
	if err != nil {
		return nil, err
	}
	// Every built pair trial plans, so the plan and its lists are one
	// allocation.
	p := &struct {
		memberPlan
		srcs     [2]*ir.Function
		names    [2]string
		newcomer [2]bool
	}{srcs: [2]*ir.Function{f1, f2}, names: [2]string{f1.Name(), f2.Name()}, newcomer: [2]bool{true, true}}
	p.memberPlan = memberPlan{srcs: p.srcs[:], names: p.names[:], newcomer: p.newcomer[:], pplan: pplan}
	return &p.memberPlan, nil
}

// flattens reports whether the plan re-merges a family, consuming its
// head, rather than pairing two newcomers.
func (mp *memberPlan) flattens() bool { return len(mp.heads) > 0 }

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
// k-ary family rather than nest: family tracking must be on (families
// is non-nil exactly when MaxFamily >= 3), at least one side must head
// an intact family, the member union must fit MaxFamily, the heads must
// have no callers outside their thunks, and the united signatures must
// plan. Any miss returns nil and the pair merges pairwise (a head nests,
// exactly the historical chain). Neither side is a member thunk — a
// forwarding body is never a merge partner — so the union names no
// function twice.
func flattenFor(m *ir.Module, families *familySet, maxFamily int, f1, f2 *ir.Function) *memberPlan {
	if families == nil {
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
	if hasExternalCallers(m, families, fam1) || hasExternalCallers(m, families, fam2) {
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
	pplan, err := core.PlanParams(fp.srcs...)
	if err != nil {
		return nil
	}
	fp.pplan = pplan
	return fp
}

// familyBaseName is the merged-function name for merging the named
// members, "merged.<n0>.<n1>...", built in one allocation: every built
// trial names its body.
func familyBaseName(names []string) string {
	n := len("merged")
	for _, nm := range names {
		n += 1 + len(nm)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("merged")
	for _, nm := range names {
		b.WriteByte('.')
		b.WriteString(nm)
	}
	return b.String()
}

// MergedFamilyName returns the collision-free name for merging the
// named family into m: "merged.<n0>.<n1>..." with a numeric suffix when
// taken. The facade's MergeFamily shares it so hand-picked families and
// driver flattenings never diverge on naming.
func MergedFamilyName(m *ir.Module, names []string) string {
	return freshName(m, familyBaseName(names), nil)
}
