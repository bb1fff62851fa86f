package interp

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// eval executes a non-control, non-call instruction.
func (env *Env) eval(frame map[ir.Value]Value, f *ir.Function, in *ir.Instruction) (Value, error) {
	op := in.Op()
	switch {
	case op.IsBinary():
		a := env.operand(frame, in.Operand(0))
		b := env.operand(frame, in.Operand(1))
		return evalBinary(in, a, b)
	case op == ir.OpICmp:
		a := env.operand(frame, in.Operand(0))
		b := env.operand(frame, in.Operand(1))
		return evalICmp(in.Pred(), a, b, in.Operand(0).Type())
	case op == ir.OpFCmp:
		a := env.operand(frame, in.Operand(0))
		b := env.operand(frame, in.Operand(1))
		if a.IsUndef() || b.IsUndef() {
			return Undef, nil
		}
		return evalFCmp(in.Pred(), a.Float, b.Float)
	case op == ir.OpAlloca:
		n := slotCount(in.AllocTy())
		obj := &Object{Name: in.Name(), Slots: make([]Value, n)}
		for i := range obj.Slots {
			obj.Slots[i] = Undef
		}
		return Value{Kind: KPtr, Ptr: Pointer{Obj: obj}}, nil
	case op == ir.OpLoad:
		p := env.operand(frame, in.Operand(0))
		if p.Kind != KPtr || p.Ptr.Obj == nil {
			return Undef, fmt.Errorf("%w: load through %v in @%s", ErrBadMemory, p, f.Name())
		}
		if p.Ptr.Off < 0 || p.Ptr.Off >= len(p.Ptr.Obj.Slots) {
			return Undef, fmt.Errorf("%w: load out of bounds in @%s", ErrBadMemory, f.Name())
		}
		return p.Ptr.Obj.Slots[p.Ptr.Off], nil
	case op == ir.OpStore:
		v := env.operand(frame, in.Operand(0))
		p := env.operand(frame, in.Operand(1))
		if p.Kind != KPtr || p.Ptr.Obj == nil {
			return Undef, fmt.Errorf("%w: store through %v in @%s", ErrBadMemory, p, f.Name())
		}
		if p.Ptr.Off < 0 || p.Ptr.Off >= len(p.Ptr.Obj.Slots) {
			return Undef, fmt.Errorf("%w: store out of bounds in @%s", ErrBadMemory, f.Name())
		}
		p.Ptr.Obj.Slots[p.Ptr.Off] = v
		return Value{Kind: KInt}, nil
	case op == ir.OpGEP:
		return env.evalGEP(frame, f, in)
	case op == ir.OpSelect:
		c := env.operand(frame, in.Operand(0))
		if c.IsUndef() {
			return Undef, fmt.Errorf("%w: select condition in @%s", ErrUndefObserved, f.Name())
		}
		if c.Bool() {
			return env.operand(frame, in.Operand(1)), nil
		}
		return env.operand(frame, in.Operand(2)), nil
	case op.IsCast():
		return evalCast(in, env.operand(frame, in.Operand(0)))
	}
	return Undef, fmt.Errorf("interp: unsupported opcode %v in @%s", op, f.Name())
}

func evalBinary(in *ir.Instruction, a, b Value) (Value, error) {
	if a.IsUndef() || b.IsUndef() {
		return Undef, nil
	}
	switch in.Op() {
	case ir.OpFAdd:
		return FloatV(a.Float + b.Float), nil
	case ir.OpFSub:
		return FloatV(a.Float - b.Float), nil
	case ir.OpFMul:
		return FloatV(a.Float * b.Float), nil
	case ir.OpFDiv:
		if b.Float == 0 {
			return FloatV(math.Inf(1)), nil
		}
		return FloatV(a.Float / b.Float), nil
	}
	bits := 64
	if it, ok := in.Type().(*ir.IntType); ok {
		bits = it.Bits
	}
	x, y := a.Int, b.Int
	ux := uint64(x) & mask(bits)
	uy := uint64(y) & mask(bits)
	var r int64
	switch in.Op() {
	case ir.OpAdd:
		r = x + y
	case ir.OpSub:
		r = x - y
	case ir.OpMul:
		r = x * y
	case ir.OpSDiv:
		if y == 0 {
			return Undef, fmt.Errorf("interp: division by zero")
		}
		if x == math.MinInt64 && y == -1 {
			r = x
		} else {
			r = x / y
		}
	case ir.OpUDiv:
		if uy == 0 {
			return Undef, fmt.Errorf("interp: division by zero")
		}
		r = int64(ux / uy)
	case ir.OpSRem:
		if y == 0 {
			return Undef, fmt.Errorf("interp: remainder by zero")
		}
		if x == math.MinInt64 && y == -1 {
			r = 0
		} else {
			r = x % y
		}
	case ir.OpURem:
		if uy == 0 {
			return Undef, fmt.Errorf("interp: remainder by zero")
		}
		r = int64(ux % uy)
	case ir.OpShl:
		r = x << (uint(y) % uint(bits))
	case ir.OpLShr:
		r = int64(ux >> (uint(y) % uint(bits)))
	case ir.OpAShr:
		r = truncate(x, bits) >> (uint(y) % uint(bits))
	case ir.OpAnd:
		r = x & y
	case ir.OpOr:
		r = x | y
	case ir.OpXor:
		r = x ^ y
	default:
		return Undef, fmt.Errorf("interp: bad binary op %v", in.Op())
	}
	return IntV(truncate(r, bits)), nil
}

func mask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

func evalICmp(pred ir.CmpPred, a, b Value, opTy ir.Type) (Value, error) {
	if a.IsUndef() || b.IsUndef() {
		return Undef, nil
	}
	if a.Kind == KPtr || b.Kind == KPtr {
		switch pred {
		case ir.PredEQ:
			return BoolV(a.Ptr == b.Ptr), nil
		case ir.PredNE:
			return BoolV(a.Ptr != b.Ptr), nil
		}
		return Undef, fmt.Errorf("interp: ordered pointer comparison")
	}
	bits := 64
	if it, ok := opTy.(*ir.IntType); ok {
		bits = it.Bits
	}
	x, y := truncate(a.Int, bits), truncate(b.Int, bits)
	ux, uy := uint64(x)&mask(bits), uint64(y)&mask(bits)
	var r bool
	switch pred {
	case ir.PredEQ:
		r = x == y
	case ir.PredNE:
		r = x != y
	case ir.PredSLT:
		r = x < y
	case ir.PredSLE:
		r = x <= y
	case ir.PredSGT:
		r = x > y
	case ir.PredSGE:
		r = x >= y
	case ir.PredULT:
		r = ux < uy
	case ir.PredULE:
		r = ux <= uy
	case ir.PredUGT:
		r = ux > uy
	case ir.PredUGE:
		r = ux >= uy
	default:
		return Undef, fmt.Errorf("interp: bad icmp predicate")
	}
	return BoolV(r), nil
}

func evalFCmp(pred ir.CmpPred, a, b float64) (Value, error) {
	if math.IsNaN(a) || math.IsNaN(b) {
		return BoolV(false), nil // ordered predicates are false on NaN
	}
	var r bool
	switch pred {
	case ir.PredOEQ:
		r = a == b
	case ir.PredONE:
		r = a != b
	case ir.PredOLT:
		r = a < b
	case ir.PredOLE:
		r = a <= b
	case ir.PredOGT:
		r = a > b
	case ir.PredOGE:
		r = a >= b
	default:
		return Undef, fmt.Errorf("interp: bad fcmp predicate")
	}
	return BoolV(r), nil
}

func (env *Env) evalGEP(frame map[ir.Value]Value, f *ir.Function, in *ir.Instruction) (Value, error) {
	base := env.operand(frame, in.Operand(0))
	if base.Kind != KPtr || base.Ptr.Obj == nil {
		return Undef, fmt.Errorf("%w: gep on %v in @%s", ErrBadMemory, base, f.Name())
	}
	elem := in.Operand(0).Type().(*ir.PointerType).Elem
	off := base.Ptr.Off
	for i := 1; i < in.NumOperands(); i++ {
		idx := env.operand(frame, in.Operand(i))
		if idx.IsUndef() {
			return Undef, fmt.Errorf("%w: gep index in @%s", ErrUndefObserved, f.Name())
		}
		if i == 1 {
			off += int(idx.Int) * slotCount(elem)
			continue
		}
		switch cur := elem.(type) {
		case *ir.ArrayType:
			off += int(idx.Int) * slotCount(cur.Elem)
			elem = cur.Elem
		case *ir.StructType:
			off += fieldOffset(cur, int(idx.Int))
			elem = cur.Fields[idx.Int]
		default:
			return Undef, fmt.Errorf("interp: gep into scalar in @%s", f.Name())
		}
	}
	return Value{Kind: KPtr, Ptr: Pointer{Obj: base.Ptr.Obj, Off: off}}, nil
}

func evalCast(in *ir.Instruction, v Value) (Value, error) {
	if v.IsUndef() {
		return Undef, nil
	}
	switch in.Op() {
	case ir.OpTrunc, ir.OpSExt:
		bits := in.Type().(*ir.IntType).Bits
		return IntV(truncate(v.Int, bits)), nil
	case ir.OpZExt:
		from := in.Operand(0).Type().(*ir.IntType).Bits
		return IntV(int64(uint64(v.Int) & mask(from))), nil
	case ir.OpFPToSI:
		bits := in.Type().(*ir.IntType).Bits
		return IntV(truncate(int64(v.Float), bits)), nil
	case ir.OpSIToFP:
		return FloatV(float64(v.Int)), nil
	case ir.OpPtrToInt:
		return IntV(int64(v.Ptr.Off)), nil
	case ir.OpIntToPtr:
		return Value{Kind: KPtr}, nil // opaque; dereferencing faults
	case ir.OpBitcast:
		return v, nil
	}
	return Undef, fmt.Errorf("interp: bad cast %v", in.Op())
}
