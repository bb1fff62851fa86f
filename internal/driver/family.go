package driver

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
)

// The merge-family machinery: instead of nesting — re-merging a merged
// function with its next partner, stacking a boolean fid, a thunk hop
// and a layer of selects per round — the driver re-merges the family's
// original bodies plus the newcomer into one fresh k-ary function and
// rewrites every member thunk to target it. The familySet remembers,
// per merged head, the original bodies that made it, each frozen
// (ir.Freeze) just before its live definition became a thunk, which
// released the body itself; a run's first flatten trial of a family
// thaws them (familySet.bodies), and the run's end or the family's
// death releases them. Everything here runs serially: the loop,
// committing or dry, and Apply all hold the session lock.

// familyMember is one original behind a merged head: the live (thunk)
// function's name and the record of the body it had before it was
// consumed.
type familyMember struct {
	name string
	rec  *ir.Frozen
}

// family is the record behind one merged head function. thawed, once a
// flatten of this run has needed them, holds the members' bodies thawed
// in member order.
type family struct {
	head    *ir.Function
	members []familyMember
	thawed  []*ir.Function
}

// bodies returns the members' original bodies, thawed on the run's
// first need: detached functions that flatten trials read and never
// write.
func (s *familySet) bodies(fam *family) []*ir.Function {
	if fam.thawed == nil {
		fam.thawed = make([]*ir.Function, len(fam.members))
		for i, mb := range fam.members {
			fam.thawed[i] = mb.rec.Thaw()
		}
		s.thawed = append(s.thawed, fam)
	}
	return fam.thawed
}

// release gives a family's thawed bodies, if any, back to the pools.
func (fam *family) release() {
	for _, body := range fam.thawed {
		ir.Release(body)
	}
	fam.thawed = nil
}

// runDone releases every body the run thawed (nil-safe): a trial keeps
// nothing of its sources, so they are dead once the run is over, and
// the next run's trials and thaws draw them from the pools.
func (s *familySet) runDone() {
	if s == nil {
		return
	}
	for _, fam := range s.thawed {
		fam.release()
	}
	clear(s.thawed)
	s.thawed = s.thawed[:0]
	s.refsFresh = false
}

// familySet tracks the merge families of one session, keyed by head.
type familySet struct {
	byHead map[*ir.Function]*family
	// thawed lists the families whose bodies this run thawed (a family
	// dropped since has released them already).
	thawed []*family
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
			s.refs.addStored(mb.rec)
		}
	}
}

// drop forgets the family headed by f (no-op for non-heads, nil-safe)
// and releases its thawed bodies.
func (s *familySet) drop(f *ir.Function) {
	if s == nil {
		return
	}
	fam := s.byHead[f]
	if fam == nil {
		return
	}
	if s.refs != nil {
		for _, mb := range fam.members {
			s.refs.forgetStored(mb.rec)
		}
	}
	fam.release()
	delete(s.byHead, f)
}

// bytes returns what the registry's records hold (ir.Frozen.Bytes).
func (s *familySet) bytes() int {
	n := 0
	for _, fam := range s.byHead {
		for _, mb := range fam.members {
			n += mb.rec.Bytes()
		}
	}
	return n
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
// holders[target][holder] exists for every live module function with
// an instruction operand identical to target, and stored[target] counts
// the stored records with one.
type refIndex struct {
	holders map[*ir.Function]map[*ir.Function]bool
	stored  map[*ir.Function]int
	// targets[holder] lists what live holder was indexed under, for
	// forget (a record lists its own, Values).
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
		s.refs = &refIndex{map[*ir.Function]map[*ir.Function]bool{}, map[*ir.Function]int{}, map[*ir.Function][]*ir.Function{}, map[*ir.Function]uint32{}}
		for _, f := range m.Funcs {
			s.refs.read(f)
		}
		for _, fam := range s.byHead {
			for _, mb := range fam.members {
				s.refs.addStored(mb.rec)
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

// read indexes every function operand of module function f as it
// stands.
func (x *refIndex) read(f *ir.Function) {
	f.Instrs(func(in *ir.Instruction) bool {
		for _, op := range in.Operands() {
			target, ok := op.(*ir.Function)
			if !ok {
				continue
			}
			if x.holders[target] == nil {
				x.holders[target] = map[*ir.Function]bool{}
			}
			if !x.holders[target][f] {
				x.holders[target][f] = true
				x.targets[f] = append(x.targets[f], target)
			}
		}
		return true
	})
	x.stamps[f] = f.Edits()
}

// forget drops live holder f from the index.
func (x *refIndex) forget(f *ir.Function) {
	for _, target := range x.targets[f] {
		delete(x.holders[target], f)
	}
	delete(x.targets, f)
	delete(x.stamps, f)
}

// addStored indexes a stored record, which lists its untracked operands
// — functions among them — once each.
func (x *refIndex) addStored(rec *ir.Frozen) {
	for _, v := range rec.Values() {
		if target, ok := v.(*ir.Function); ok {
			x.stored[target]++
		}
	}
}

// forgetStored drops a stored record from the index.
func (x *refIndex) forgetStored(rec *ir.Frozen) {
	for _, v := range rec.Values() {
		if target, ok := v.(*ir.Function); ok {
			if x.stored[target]--; x.stored[target] == 0 {
				delete(x.stored, target)
			}
		}
	}
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
// family's stored original, which a later flatten would re-merge into
// a call of the removed head. Either vetoes flattening for this family.
// A reference is an operand identical to the head; a live holder is
// excused iff it is the head or carries a member's name. No stored
// record needs an excuse: the family's own were frozen before the head
// existed, so any record that holds the head is another family's.
// A row's retained trial needs no entry: no trial input is a member thunk.
func hasExternalCallers(m *ir.Module, families *familySet, fam *family) bool {
	if fam == nil {
		return false
	}
	refs := families.index(m)
	found := false
	for h := range refs.holders[fam.head] {
		if h != fam.head && !slices.ContainsFunc(fam.members, func(mb familyMember) bool { return mb.name == h.Name() }) {
			found = true
			break
		}
	}
	found = found || refs.stored[fam.head] > 0
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
// heads. A flatten (flattenFor) unites a family's stored originals with
// a newcomer or another family; a pairwise merge is a family of two live
// newcomers with no heads (pairPlan). The plan a trial was built from
// rides on it into the commit-step.
type memberPlan struct {
	// srcs are the merge inputs in fid order: existing members' bodies
	// thawed from their records (familySet.bodies), live module
	// functions for newcomers.
	srcs []*ir.Function
	// names[i] is the live function that becomes srcs[i]'s thunk.
	names []string
	// stored[i] is the record srcs[i] was thawed from, nil for a live
	// newcomer, whose body is frozen into the registry before it is
	// thunked.
	stored []*ir.Frozen
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
		srcs   [2]*ir.Function
		names  [2]string
		stored [2]*ir.Frozen
	}{srcs: [2]*ir.Function{f1, f2}, names: [2]string{f1.Name(), f2.Name()}}
	p.memberPlan = memberPlan{srcs: p.srcs[:], names: p.names[:], stored: p.stored[:], pplan: pplan}
	return &p.memberPlan, nil
}

// flattens reports whether the plan re-merges a family, consuming its
// head, rather than pairing two newcomers.
func (mp *memberPlan) flattens() bool { return len(mp.heads) > 0 }

// member returns the live function that becomes member i's thunk: a
// newcomer is its own source, an existing member's thunk is found by
// name (validMembers checked it is there).
func (mp *memberPlan) member(m *ir.Module, i int) *ir.Function {
	if mp.stored[i] == nil {
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
			fp.stored = append(fp.stored, nil)
			return
		}
		fp.heads = append(fp.heads, fam.head)
		fp.srcs = append(fp.srcs, families.bodies(fam)...)
		for _, mb := range fam.members {
			fp.names = append(fp.names, mb.name)
			fp.stored = append(fp.stored, mb.rec)
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
