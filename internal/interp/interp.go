package interp

import (
	"errors"
	"fmt"

	"repro/internal/ir"
)

// TraceEvent records one externally visible action: a call to an
// undefined (external) function, with its arguments and result.
type TraceEvent struct {
	Callee string
	Args   []Value
	Result Value
}

// String renders the event compactly.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%s%v=%v", e.Callee, e.Args, e.Result)
}

// Env is the execution environment: external function behaviour, global
// storage and accounting.
type Env struct {
	// Externals supplies implementations for declared functions. When a
	// name is absent, DefaultExternal runs instead.
	Externals map[string]func(args []Value) (Value, error)
	// Throws makes the named external raise an exception when the
	// predicate returns true, exercising invoke/landingpad paths.
	Throws map[string]func(args []Value) bool
	// MaxSteps bounds total executed instructions (default 1 << 20).
	MaxSteps int

	// Trace accumulates external calls in execution order.
	Trace []TraceEvent
	// Steps counts executed instructions (the Figure 25 metric).
	Steps int

	globals map[*ir.GlobalVar]*Object
	depth   int
}

// NewEnv returns an environment with deterministic default externals.
func NewEnv() *Env {
	return &Env{
		Externals: map[string]func(args []Value) (Value, error){},
		Throws:    map[string]func(args []Value) bool{},
		MaxSteps:  1 << 20,
		globals:   map[*ir.GlobalVar]*Object{},
	}
}

// Exception is a thrown exception unwinding through invokes.
type Exception struct {
	// Payload is the landingpad value observed at catch sites.
	Payload Value
}

// Error implements the error interface.
func (e *Exception) Error() string { return "ir exception" }

// Errors reported by the interpreter.
var (
	ErrStepLimit     = errors.New("interp: step limit exceeded")
	ErrUndefObserved = errors.New("interp: undef value observed")
	ErrBadMemory     = errors.New("interp: invalid memory access")
	ErrDepth         = errors.New("interp: call depth exceeded")
)

const maxDepth = 64

// Call executes f with the given arguments and returns its result.
// A returned *Exception error means f threw (escaped unwinding).
func (env *Env) Call(f *ir.Function, args []Value) (Value, error) {
	if f.IsDecl() {
		return env.callExternal(f, args)
	}
	if env.depth >= maxDepth {
		return Undef, ErrDepth
	}
	env.depth++
	defer func() { env.depth-- }()

	if len(args) != len(f.Params()) {
		return Undef, fmt.Errorf("interp: @%s called with %d args, want %d",
			f.Name(), len(args), len(f.Params()))
	}
	frame := make(map[ir.Value]Value, f.NumInstrs())
	for i, p := range f.Params() {
		frame[p] = args[i]
	}
	var prev *ir.Block
	block := f.Entry()
	for {
		// Phis evaluate simultaneously against the incoming edge.
		phis := block.Phis()
		if len(phis) > 0 {
			vals := make([]Value, len(phis))
			for i, phi := range phis {
				v, ok := phi.IncomingFor(prev)
				if !ok {
					return Undef, fmt.Errorf("interp: phi in %%%s has no incoming for %%%s",
						block.Name(), prev.Name())
				}
				vals[i] = env.operand(frame, v)
				env.Steps++
			}
			for i, phi := range phis {
				frame[phi] = vals[i]
			}
		}
		for _, in := range block.Instrs()[len(phis):] {
			env.Steps++
			if env.Steps > env.MaxSteps {
				return Undef, ErrStepLimit
			}
			switch in.Op() {
			case ir.OpRet:
				if in.NumOperands() == 0 {
					return Value{Kind: KInt}, nil // void sentinel
				}
				return env.operand(frame, in.Operand(0)), nil
			case ir.OpBr:
				if in.IsCondBr() {
					c := env.operand(frame, in.Operand(0))
					if c.IsUndef() {
						return Undef, fmt.Errorf("%w: branch condition in @%s", ErrUndefObserved, f.Name())
					}
					if c.Bool() {
						prev, block = block, in.Operand(1).(*ir.Block)
					} else {
						prev, block = block, in.Operand(2).(*ir.Block)
					}
				} else {
					prev, block = block, in.Operand(0).(*ir.Block)
				}
			case ir.OpSwitch:
				v := env.operand(frame, in.Operand(0))
				if v.IsUndef() {
					return Undef, fmt.Errorf("%w: switch value in @%s", ErrUndefObserved, f.Name())
				}
				dest := in.Operand(1).(*ir.Block)
				for _, c := range in.SwitchCases() {
					if c.Val.V == v.Int {
						dest = c.Dest
						break
					}
				}
				prev, block = block, dest
			case ir.OpUnreachable:
				return Undef, fmt.Errorf("interp: reached unreachable in @%s", f.Name())
			case ir.OpCall:
				res, err := env.dispatchCall(frame, in)
				if err != nil {
					return Undef, err // exceptions propagate through calls
				}
				frame[in] = res
			case ir.OpInvoke:
				res, err := env.dispatchCall(frame, in)
				var exc *Exception
				if errors.As(err, &exc) {
					// Unwind to the landing pad.
					pad := in.UnwindDest()
					lp := pad.FirstNonPhi()
					prev, block = block, pad
					frame[lp] = exc.Payload
					goto nextBlock
				}
				if err != nil {
					return Undef, err
				}
				frame[in] = res
				prev, block = block, in.NormalDest()
			case ir.OpResume:
				return Undef, &Exception{Payload: env.operand(frame, in.Operand(0))}
			case ir.OpLandingPad:
				// Value was seeded by the unwinding invoke; keep it.
				if _, ok := frame[in]; !ok {
					return Undef, fmt.Errorf("interp: landingpad entered normally in @%s", f.Name())
				}
			default:
				v, err := env.eval(frame, f, in)
				if err != nil {
					return Undef, err
				}
				frame[in] = v
			}
			if in.IsTerminator() {
				goto nextBlock
			}
		}
		return Undef, fmt.Errorf("interp: block %%%s fell through in @%s", block.Name(), f.Name())
	nextBlock:
	}
}

// dispatchCall evaluates a call or invoke's callee and arguments and
// performs the call.
func (env *Env) dispatchCall(frame map[ir.Value]Value, in *ir.Instruction) (Value, error) {
	calleeV := env.operand(frame, in.Callee())
	var callee *ir.Function
	switch {
	case calleeV.Kind == KFunc:
		callee = calleeV.Func
	default:
		return Undef, fmt.Errorf("interp: indirect call through %v", calleeV)
	}
	args := make([]Value, len(in.Args()))
	for i, a := range in.Args() {
		args[i] = env.operand(frame, a)
	}
	return env.Call(callee, args)
}

// callExternal runs a declared function: either a user-supplied
// implementation or the deterministic default. Undef arguments are
// observations and fault.
func (env *Env) callExternal(f *ir.Function, args []Value) (Value, error) {
	for _, a := range args {
		if a.IsUndef() {
			return Undef, fmt.Errorf("%w: undef argument to external @%s", ErrUndefObserved, f.Name())
		}
	}
	if pred, ok := env.Throws[f.Name()]; ok && pred(args) {
		payload := Value{Kind: KAggregate, Agg: []Value{
			{Kind: KPtr}, IntV(int64(len(env.Trace) + 1)),
		}}
		env.Trace = append(env.Trace, TraceEvent{Callee: f.Name(), Args: args, Result: Value{Kind: KAggregate}})
		return Undef, &Exception{Payload: payload}
	}
	var res Value
	var err error
	if impl, ok := env.Externals[f.Name()]; ok {
		res, err = impl(args)
		if err != nil {
			return Undef, err
		}
	} else {
		res = DefaultExternal(f, args)
	}
	env.Trace = append(env.Trace, TraceEvent{Callee: f.Name(), Args: args, Result: res})
	return res, nil
}

// DefaultExternal is a deterministic pure function of the callee name
// and arguments, typed according to the callee's return type.
func DefaultExternal(f *ir.Function, args []Value) Value {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, c := range f.Name() {
		mix(uint64(c))
	}
	for _, a := range args {
		switch a.Kind {
		case KInt:
			mix(uint64(a.Int))
		case KFloat:
			mix(uint64(int64(a.Float * 4096)))
		case KPtr:
			mix(uint64(a.Ptr.Off))
		}
	}
	switch rt := f.Sig().Ret.(type) {
	case *ir.VoidType:
		return Value{Kind: KInt}
	case *ir.IntType:
		// Keep values in a small signed range so arithmetic stays tame.
		return IntV(truncate(int64(h%255)-127, rt.Bits))
	case *ir.FloatType:
		return FloatV(float64(int64(h%2047) - 1023))
	default:
		return Undef
	}
}

func truncate(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	s := uint(64 - bits)
	return v << s >> s
}

// GlobalObject returns (allocating on demand) the storage of g.
func (env *Env) GlobalObject(g *ir.GlobalVar) *Object {
	if o, ok := env.globals[g]; ok {
		return o
	}
	o := &Object{Name: g.Name(), Slots: make([]Value, slotCount(g.ValueTy))}
	for i := range o.Slots {
		o.Slots[i] = IntV(0)
	}
	if c, ok := g.Init.(*ir.ConstInt); ok {
		o.Slots[0] = IntV(c.V)
	}
	if c, ok := g.Init.(*ir.ConstFloat); ok {
		o.Slots[0] = FloatV(c.V)
	}
	env.globals[g] = o
	return o
}

// operand evaluates a value reference within a frame.
func (env *Env) operand(frame map[ir.Value]Value, v ir.Value) Value {
	switch v := v.(type) {
	case *ir.ConstInt:
		return IntV(v.V)
	case *ir.ConstFloat:
		return FloatV(v.V)
	case *ir.Undef:
		return Undef
	case *ir.ConstNull:
		return Value{Kind: KPtr}
	case *ir.Function:
		return Value{Kind: KFunc, Func: v}
	case *ir.GlobalVar:
		return Value{Kind: KPtr, Ptr: Pointer{Obj: env.GlobalObject(v)}}
	default:
		if val, ok := frame[v]; ok {
			return val
		}
		return Undef
	}
}
