package ir

import "testing"

// TestForwardee: every body BuildForwarder builds is recognised as a
// forward to its callee and verifies, whatever the arguments (the
// forwarder's own parameters, constants, undef) and return type; a body
// off that shape by one instruction, one operand or one block is not.
func TestForwardee(t *testing.T) {
	for _, ret := range []Type{Void, I32} {
		sig := FuncOf(ret, I32, I64)
		callee := NewFunction("callee", FuncOf(ret, I1, I32, I64, I32))
		for _, args := range [][]Value{
			nil, // filled with f's parameters below
			{True, NewConstInt(I32, 4), NewUndef(I64), NewUndef(I32)},
		} {
			f := NewFunction("f", sig)
			if args == nil {
				args = []Value{False, f.Param(0), f.Param(1), NewUndef(I32)}
			}
			BuildForwarder(f, callee, args)
			if got := Forwardee(f); got != callee {
				t.Fatalf("ret %v: Forwardee = %v, want @callee:\n%s", ret, got, f)
			}
			if err := VerifyFunction(f); err != nil {
				t.Fatalf("ret %v: the forwarder does not verify: %v", ret, err)
			}
		}
		self := NewFunction("self", FuncOf(ret, I32, I64))
		BuildForwarder(self, self, self.ParamValues())
		if Forwardee(self) != self {
			t.Errorf("ret %v: a forwarder passing its own parameters is not recognised", ret)
		}
	}

	notForwarding := map[string]func(f *Function, callee *Function){
		"declaration": func(*Function, *Function) {},
		"extra instruction": func(f, callee *Function) {
			e := f.NewBlockIn("entry")
			x := e.Append(NewBinary(OpAdd, "x", f.Param(0), f.Param(0)))
			call := e.Append(NewCall("", callee, x))
			e.Append(NewRet(call))
		},
		"computed argument": func(f, callee *Function) {
			e := f.NewBlockIn("entry")
			other := NewFunction("other", f.Sig())
			call := e.Append(NewCall("", callee, other.Param(0)))
			e.Append(NewRet(call))
		},
		"result dropped": func(f, callee *Function) {
			e := f.NewBlockIn("entry")
			e.Append(NewCall("", callee, f.Param(0)))
			e.Append(NewRet(f.Param(0)))
		},
		"two blocks": func(f, callee *Function) {
			e, b := f.NewBlockIn("entry"), f.NewBlockIn("b")
			e.Append(NewBr(b))
			call := b.Append(NewCall("", callee, f.Param(0)))
			b.Append(NewRet(call))
		},
		"indirect call": func(f, _ *Function) {
			e := f.NewBlockIn("entry")
			call := e.Append(NewCall("", f.Param(1), f.Param(0)))
			e.Append(NewRet(call))
		},
	}
	for name, build := range notForwarding {
		f := NewFunction("f", FuncOf(I32, I32, PtrTo(FuncOf(I32, I32))))
		build(f, NewFunction("callee", FuncOf(I32, I32)))
		if got := Forwardee(f); got != nil {
			t.Errorf("%s: Forwardee = @%s, want nil:\n%s", name, got.Name(), f)
		}
	}
}
