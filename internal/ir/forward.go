package ir

// BuildForwarder replaces f's body with one block holding a direct call
// of callee with args and a ret of its result (ret void when callee
// returns void): the one builder of forwarding bodies, merge thunks
// (core.BuildThunk) and fold forwarders alike. The body it replaces is
// released (releaseBody), so nothing may point into it: a caller that
// keeps the old body freezes it first (Freeze) or moves it out
// (DetachBody).
func BuildForwarder(f, callee *Function, args []Value) {
	f.releaseBody()
	entry := f.NewBlockIn("entry")
	call := entry.Append(NewCall("", callee, args...))
	if IsVoid(callee.sig.Ret) {
		entry.Append(NewRet(nil))
	} else {
		entry.Append(NewRet(call))
	}
}

// ParamValues returns f's parameters as call arguments, in order.
func (f *Function) ParamValues() []Value {
	args := make([]Value, len(f.params))
	for i, p := range f.params {
		args[i] = p
	}
	return args
}

// Forwardee returns the function f's body forwards to, or nil when f is
// not a forwarding body: one block holding a direct call and a ret of
// the call's result (or ret void), every argument of the call one of
// f's parameters, a constant or undef.
func Forwardee(f *Function) *Function {
	if len(f.Blocks) != 1 || len(f.Blocks[0].instrs) != 2 {
		return nil
	}
	call, ret := f.Blocks[0].instrs[0], f.Blocks[0].instrs[1]
	if call.op != OpCall || ret.op != OpRet || len(ret.operands) == 1 && ret.operands[0] != Value(call) {
		return nil
	}
	for _, a := range call.operands[1:] {
		if p, ok := a.(*Argument); !IsConstant(a) && (!ok || p.parent != f) {
			return nil
		}
	}
	callee, _ := call.operands[0].(*Function)
	return callee
}
