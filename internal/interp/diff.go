package interp

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Outcome summarises one execution for differential comparison.
type Outcome struct {
	// Ret is the returned value (void functions return the int sentinel 0).
	Ret Value
	// Err classifies abnormal termination ("" for normal return,
	// "exception" for an escaped throw, otherwise the error text).
	Err string
	// Trace is the externally visible call trace.
	Trace []TraceEvent
	// Steps is the dynamic instruction count.
	Steps int
	// undef says the execution stopped on observing an undef value
	// (ErrUndefObserved). Err then names the function it happened in, so
	// two such ends are one termination class whatever Err says.
	undef bool
}

// Run executes f on args in a fresh environment derived from proto
// (externals and throw predicates are shared; globals are fresh).
func Run(proto *Env, f *ir.Function, args []Value) Outcome {
	env := NewEnv()
	if proto != nil {
		env.Externals = proto.Externals
		env.Throws = proto.Throws
		if proto.MaxSteps > 0 {
			env.MaxSteps = proto.MaxSteps
		}
	}
	ret, err := env.Call(f, args)
	out := Outcome{Ret: ret, Trace: env.Trace, Steps: env.Steps}
	// Make final memory observable: buffers passed by pointer become
	// synthetic trace events so stores through arguments are compared.
	for i, a := range args {
		if a.Kind == KPtr && a.Ptr.Obj != nil {
			out.Trace = append(out.Trace, TraceEvent{
				Callee: fmt.Sprintf("__mem%d", i),
				Args:   append([]Value(nil), a.Ptr.Obj.Slots...),
			})
		}
	}
	var exc *Exception
	switch {
	case err == nil:
	case errors.As(err, &exc):
		out.Err = "exception"
	default:
		out.Err = err.Error()
		out.undef = errors.Is(err, ErrUndefObserved)
	}
	return out
}

// SameBehavior reports whether two outcomes are observationally equal:
// same return value, same termination class and same external trace.
// Step counts are performance, not behaviour, and are ignored. Every
// undef observation is one termination class, wherever it happened.
func SameBehavior(a, b Outcome) (bool, string) {
	if a.undef != b.undef || !a.undef && a.Err != b.Err {
		return false, fmt.Sprintf("termination differs: %q vs %q", a.Err, b.Err)
	}
	if a.Err != "" && strings.Contains(a.Err, "step limit") {
		// Both executions diverged beyond the step budget; their
		// truncated traces are incomparable (merged code interleaves the
		// same external calls at a different instruction density).
		return true, ""
	}
	if a.Err == "" && !a.Ret.Equal(b.Ret) {
		return false, fmt.Sprintf("return values differ: %v vs %v", a.Ret, b.Ret)
	}
	if len(a.Trace) != len(b.Trace) {
		return false, fmt.Sprintf("trace lengths differ: %d vs %d\n  a: %s\n  b: %s",
			len(a.Trace), len(b.Trace), formatTrace(a.Trace), formatTrace(b.Trace))
	}
	for i := range a.Trace {
		ta, tb := a.Trace[i], b.Trace[i]
		if ta.Callee != tb.Callee || len(ta.Args) != len(tb.Args) {
			return false, fmt.Sprintf("trace event %d differs: %v vs %v", i, ta, tb)
		}
		for j := range ta.Args {
			if !ta.Args[j].Equal(tb.Args[j]) {
				return false, fmt.Sprintf("trace event %d arg %d differs: %v vs %v", i, j, ta, tb)
			}
		}
	}
	return true, ""
}

func formatTrace(t []TraceEvent) string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// ArgsFor builds deterministic argument values for f's signature from an
// integer seed, for differential fuzzing.
func ArgsFor(f *ir.Function, seed int64) []Value {
	args := make([]Value, len(f.Params()))
	s := seed
	next := func() int64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 33
	}
	for i, p := range f.Params() {
		switch t := p.Type().(type) {
		case *ir.IntType:
			args[i] = IntV(truncate(next()%17-8, t.Bits))
		case *ir.FloatType:
			args[i] = FloatV(float64(next()%15 - 7))
		case *ir.PointerType:
			// A small scratch buffer the callee may load/store through.
			obj := &Object{Name: fmt.Sprintf("buf%d", i), Slots: make([]Value, 8)}
			for j := range obj.Slots {
				obj.Slots[j] = IntV(next() % 9)
			}
			args[i] = Value{Kind: KPtr, Ptr: Pointer{Obj: obj}}
		default:
			args[i] = Undef
		}
	}
	return args
}
