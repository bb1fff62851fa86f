package ir

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain poisons every body a test of the package releases
// (ReleaseCheck): a released object is never pooled, so a stale pointer
// into a dead body cannot alias a live one. The tests that check the
// pools themselves switch the hook off for their duration. Benchmark
// runs go without.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		ReleaseCheck = func(*Function) {}
	}
	os.Exit(m.Run())
}

// withPools runs fn with released objects pooled, as in production.
func withPools(fn func()) {
	saved := ReleaseCheck
	ReleaseCheck = nil
	defer func() { ReleaseCheck = saved }()
	fn()
}

// diamond builds a detached, self-contained diamond over two i32
// arguments: a branch, an add on one side, a phi and a return.
func diamond(name string) *Function {
	f := NewFunction(name, FuncOf(I32, I1, I32))
	entry, a, b, join := f.NewBlockIn("entry"), f.NewBlockIn("a"), f.NewBlockIn("b"), f.NewBlockIn("join")
	entry.Append(NewCondBr(f.Param(0), a, b))
	x := a.Append(NewBinary(OpAdd, "x", f.Param(1), NewConstInt(I32, 1)))
	a.Append(NewBr(join))
	b.Append(NewBr(join))
	phi := join.Append(NewPhiSized("p", I32, 2))
	phi.AddIncoming(x, a)
	phi.AddIncoming(f.Param(1), b)
	join.Append(NewRet(phi))
	return f
}

// mustPanic runs fn and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: Release did not panic", what)
			return
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want it to mention %q", what, r, want)
		}
	}()
	fn()
}

// TestReleaseRejectsForeign: Release refuses a function a module holds,
// a body with an operand from another function, and a body one of whose
// values another function uses — before touching anything.
func TestReleaseRejectsForeign(t *testing.T) {
	m := NewModule()
	attached := m.AddFunc(diamond("attached"))
	mustPanic(t, "attached function", "module holds", func() { Release(attached) })
	if attached.IsDecl() || m.FuncByName("attached") != attached {
		t.Error("a refused Release changed the attached function")
	}

	// An operand from another function.
	donor, borrower := diamond("donor"), diamond("borrower")
	ret := borrower.Blocks[3].Term()
	ret.SetOperand(0, donor.Param(1))
	mustPanic(t, "foreign operand", "operand from outside the body", func() { Release(borrower) })

	// A body value with an outside user: donor's argument is used by
	// borrower's ret, so releasing donor would strand that use.
	mustPanic(t, "outside user", "used outside the body", func() { Release(donor) })

	// A body value used by a detached instruction is outside too.
	f := diamond("f")
	NewBinary(OpMul, "stray", f.Blocks[1].First(), NewConstInt(I32, 2))
	mustPanic(t, "detached user", "used outside the body", func() { Release(f) })

	if err := VerifyFunction(donor); err != nil {
		t.Errorf("a refused Release broke the body: %v", err)
	}
}

// TestReleasedObjectsReset: an instruction or block a constructor hands
// out again carries nothing of its past — no stamps, marks, position,
// parent, operands or uses, however busy its first life was.
func TestReleasedObjectsReset(t *testing.T) {
	withPools(func() {
		const bodies = 50
		instrs := map[*Instruction]bool{}
		blocks := map[*Block]bool{}
		for i := 0; i < bodies; i++ {
			f := diamond("f")
			// Give the objects history: edits move stamps, marks are set.
			for _, b := range f.Blocks {
				b.SetMark(0, f.Edits())
				for _, in := range b.Instrs() {
					instrs[in] = true
				}
				blocks[b] = true
			}
			Release(f)
			if !f.IsDecl() || HasUses(f.Param(0)) || HasUses(f.Param(1)) {
				t.Fatal("a released function keeps a body or argument uses")
			}
		}
		reusedI, reusedB := 0, 0
		for i := 0; i < bodies; i++ {
			b := NewBlock("fresh")
			in := NewBinary(OpSub, "y", NewConstInt(I32, 3), NewConstInt(I32, 4))
			phi := NewPhiSized("q", I32, 3)
			c := CloneShape(in)
			for _, x := range []*Instruction{in, phi, c} {
				if !instrs[x] {
					continue
				}
				reusedI++
				if x.parent != nil || x.pos != 0 || len(x.us) != 0 || x.Cleanup || x.pred != 0 {
					t.Errorf("reused %v instruction carries state: parent %p, pos %d, %d uses", x.op, x.parent, x.pos, len(x.us))
				}
			}
			if len(in.operands) != 2 || len(phi.operands) != 0 || len(c.operands) != 2 {
				t.Errorf("constructors hand out %d/%d/%d operands, want 2/0/2", len(in.operands), len(phi.operands), len(c.operands))
			}
			if c.operands[0] != nil || c.operands[1] != nil {
				t.Errorf("a shape-only clone holds operands %v", c.operands)
			}
			if cap(phi.operands) < 6 {
				t.Errorf("NewPhiSized(3) has room for %d operands, want 6", cap(phi.operands))
			}
			if !blocks[b] {
				continue
			}
			reusedB++
			if b.parent != nil || b.index != -1 || len(b.instrs) != 0 || len(b.us) != 0 ||
				b.stamp != 0 || b.phiStamp != 0 || b.operandStamp != 0 || b.useStamp != 0 || b.marks != [NumMarks]uint32{} {
				t.Errorf("reused block carries state: %+v", *b)
			}
			if b.Name() != "fresh" {
				t.Errorf("reused block is named %q", b.Name())
			}
		}
		// The pools may drop objects (a collection, the race detector),
		// but not all of them.
		if reusedI == 0 || reusedB == 0 {
			t.Errorf("constructors reused %d instructions and %d blocks of %d released bodies", reusedI, reusedB, bodies)
		}
	})
}

// TestReleasePoisons: under ReleaseCheck the hook sees the body intact,
// and what Release takes apart is poisoned, not pooled.
func TestReleasePoisons(t *testing.T) {
	f := diamond("f")
	var seen []*Instruction
	saved := ReleaseCheck
	ReleaseCheck = func(g *Function) {
		g.Instrs(func(in *Instruction) bool {
			seen = append(seen, in)
			return true
		})
	}
	defer func() { ReleaseCheck = saved }()
	Release(f)
	if len(seen) != 6 {
		t.Fatalf("hook saw %d instructions, want 6", len(seen))
	}
	for _, in := range seen {
		if in.op != poisonOp || in.parent != nil || in.operands != nil {
			t.Errorf("released %s is not poisoned", in.name)
		}
	}
	for i := 0; i < 100; i++ {
		if x := NewRet(nil); x == seen[0] {
			t.Fatal("a poisoned instruction was handed out again")
		}
	}
}

// TestReplacedBodiesReleased: the body BuildForwarder or AdoptBody
// replaces dies the way a discarded trial does — handed to ReleaseCheck
// whole, then poisoned — in a function a module holds, which comes out
// with only its new body's uses on its arguments. A replaced body that
// is not self-contained is refused before anything changes.
func TestReplacedBodiesReleased(t *testing.T) {
	var seen []*Instruction
	saved := ReleaseCheck
	ReleaseCheck = func(g *Function) {
		g.Instrs(func(in *Instruction) bool {
			seen = append(seen, in)
			return true
		})
	}
	defer func() { ReleaseCheck = saved }()
	replaced := func(what string, f *Function, replace func()) {
		t.Helper()
		seen = nil
		old := f.NumInstrs()
		replace()
		if len(seen) != old {
			t.Errorf("%s: ReleaseCheck saw %d instructions of a %d-instruction body", what, len(seen), old)
		}
		for _, in := range seen {
			if in.op != poisonOp || in.parent != nil || in.operands != nil {
				t.Errorf("%s: the replaced body's %s is not poisoned", what, in.name)
			}
		}
		if err := VerifyFunction(f); err != nil {
			t.Errorf("%s: %v", what, err)
		}
		for _, p := range f.Params() {
			for _, u := range UsesOf(p) {
				if u.User.Parent() == nil || u.User.Parent().Parent() != f {
					t.Errorf("%s: %%%s keeps a use from outside the new body", what, p.Name())
				}
			}
		}
	}

	m := NewModule()
	callee := m.AddFunc(diamond("callee"))
	fwd := m.AddFunc(diamond("fwd"))
	replaced("BuildForwarder", fwd, func() { BuildForwarder(fwd, callee, fwd.ParamValues()) })
	if Forwardee(fwd) != callee {
		t.Errorf("BuildForwarder built no forwarder:\n%s", fwd)
	}
	// A forwarder replaced by a forwarder releases the first one.
	replaced("BuildForwarder over a forwarder", fwd, func() { BuildForwarder(fwd, callee, fwd.ParamValues()) })

	target := m.AddFunc(diamond("target"))
	donor := diamond("target")
	replaced("AdoptBody", target, func() {
		if err := target.AdoptBody(donor); err != nil {
			t.Fatal(err)
		}
	})
	if !donor.IsDecl() || target.NumInstrs() != 6 {
		t.Errorf("AdoptBody left the donor with %d blocks and the target with %d instructions", len(donor.Blocks), target.NumInstrs())
	}

	// An outside user of the old body: refused, and nothing moves.
	held := m.AddFunc(diamond("held"))
	stray := NewBinary(OpMul, "stray", held.Blocks[1].First(), NewConstInt(I32, 2))
	mustPanic(t, "BuildForwarder over a used body", "used outside the body", func() {
		BuildForwarder(held, callee, held.ParamValues())
	})
	if held.NumInstrs() != 6 || stray.Operand(0) != held.Blocks[1].First() {
		t.Error("a refused BuildForwarder changed the body")
	}
}

// TestReplaceAllUsesWithGrowsOnce: moving n uses onto a value grows its
// use list once, not once per append — as many allocations for 512 uses
// as for 8 — and the moved uses arrive in the order they always have:
// the first, then the rest from the back, as each removal moves the
// last use into the vacated slot.
func TestReplaceAllUsesWithGrowsOnce(t *testing.T) {
	sig := FuncOf(Void, I32)
	withUsers := func(n int) (*Function, []*Instruction) {
		f := NewFunction("f", sig)
		entry := f.NewBlockIn("entry")
		users := make([]*Instruction, n)
		for i := range users {
			users[i] = entry.Append(NewBinary(OpAdd, "u", f.Param(0), NewConstInt(I32, int64(i))))
		}
		entry.Append(NewRet(nil))
		return f, users
	}
	moveAllocs := func(n int) float64 {
		const runs = 20
		f, _ := withUsers(n)
		// Each run moves every use onto a fresh argument with an empty
		// list.
		targets := make([]Value, runs+2)
		targets[0] = f.Param(0)
		for i := 1; i < len(targets); i++ {
			targets[i] = NewFunction("t", sig).Param(0)
		}
		at := 0
		return testing.AllocsPerRun(runs, func() {
			ReplaceAllUsesWith(targets[at], targets[at+1])
			at++
		})
	}
	if few, many := moveAllocs(8), moveAllocs(512); many != few || many > 2 {
		t.Errorf("ReplaceAllUsesWith allocated %.0f times for 8 uses and %.0f for 512; want one growth either way", few, many)
	}
	f, users := withUsers(64)
	to := NewFunction("to", sig).Param(0)
	ReplaceAllUsesWith(f.Param(0), to)
	want := slices.Clone(users)
	slices.Reverse(want[1:])
	if len(UsesOf(to)) != len(want) {
		t.Fatalf("%d uses moved, want %d", len(UsesOf(to)), len(want))
	}
	for i, u := range UsesOf(to) {
		if u.User != want[i] || u.Index != 0 {
			t.Fatalf("use %d of the moved list is {%p, %d}, want {%p, 0}", i, u.User, u.Index, want[i])
		}
	}
}
