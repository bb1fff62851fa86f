package transform

import (
	"repro/internal/ir"
)

// foldConstExpr attempts to evaluate in to a constant or to simplify it
// algebraically to one of its operands. Returns nil when no folding
// applies.
func foldConstExpr(in *ir.Instruction) ir.Value {
	switch {
	case in.Op().IsBinary():
		return foldBinary(in)
	case in.Op() == ir.OpICmp:
		return foldICmp(in)
	case in.Op() == ir.OpSelect:
		return foldSelect(in)
	case in.Op().IsCast():
		return foldCast(in)
	}
	return nil
}

func intConst(v ir.Value) (*ir.ConstInt, bool) {
	c, ok := v.(*ir.ConstInt)
	return c, ok
}

func foldBinary(in *ir.Instruction) ir.Value {
	a, b := in.Operand(0), in.Operand(1)
	ca, aOK := intConst(a)
	cb, bOK := intConst(b)
	ty, isInt := in.Type().(*ir.IntType)
	if !isInt {
		return nil
	}
	// Algebraic identities with one constant operand.
	if bOK {
		switch in.Op() {
		case ir.OpAdd, ir.OpSub, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
			if cb.IsZero() {
				return a
			}
		case ir.OpMul:
			if cb.V == 1 {
				return a
			}
			if cb.IsZero() {
				return cb
			}
		case ir.OpSDiv, ir.OpUDiv:
			if cb.V == 1 {
				return a
			}
		case ir.OpAnd:
			if cb.IsZero() {
				return cb
			}
			if cb.V == -1 {
				return a
			}
		}
	}
	if aOK && in.Op().IsCommutative() {
		switch in.Op() {
		case ir.OpAdd, ir.OpOr, ir.OpXor:
			if ca.IsZero() {
				return b
			}
		case ir.OpMul:
			if ca.V == 1 {
				return b
			}
			if ca.IsZero() {
				return ca
			}
		case ir.OpAnd:
			if ca.IsZero() {
				return ca
			}
			if ca.V == -1 {
				return b
			}
		}
	}
	// xor x, x  ->  0 ; sub x, x -> 0 (used by the xor-branch clean-up).
	if (in.Op() == ir.OpXor || in.Op() == ir.OpSub) && ir.ValuesEqual(a, b) && !ir.IsConstant(a) {
		return ir.NewConstInt(ty, 0)
	}
	if !aOK || !bOK {
		return nil
	}
	x, y := ca.V, cb.V
	bits := ty.Bits
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
			return nil
		}
		r = x / y
	case ir.OpUDiv:
		if y == 0 {
			return nil
		}
		r = int64(toUnsigned(x, bits) / toUnsigned(y, bits))
	case ir.OpSRem:
		if y == 0 {
			return nil
		}
		r = x % y
	case ir.OpURem:
		if y == 0 {
			return nil
		}
		r = int64(toUnsigned(x, bits) % toUnsigned(y, bits))
	case ir.OpShl:
		if uint64(y) >= uint64(bits) {
			return nil
		}
		r = x << uint(y)
	case ir.OpLShr:
		if uint64(y) >= uint64(bits) {
			return nil
		}
		r = int64(toUnsigned(x, bits) >> uint(y))
	case ir.OpAShr:
		if uint64(y) >= uint64(bits) {
			return nil
		}
		r = x >> uint(y)
	case ir.OpAnd:
		r = x & y
	case ir.OpOr:
		r = x | y
	case ir.OpXor:
		r = x ^ y
	default:
		return nil
	}
	return ir.NewConstInt(ty, r)
}

// toUnsigned reinterprets the sign-extended v as an unsigned value of the
// given width.
func toUnsigned(v int64, bits int) uint64 {
	if bits >= 64 {
		return uint64(v)
	}
	return uint64(v) & (1<<uint(bits) - 1)
}

func foldICmp(in *ir.Instruction) ir.Value {
	a, b := in.Operand(0), in.Operand(1)
	if ir.ValuesEqual(a, b) && !ir.IsConstant(a) {
		switch in.Pred() {
		case ir.PredEQ, ir.PredSLE, ir.PredSGE, ir.PredULE, ir.PredUGE:
			return ir.True
		case ir.PredNE, ir.PredSLT, ir.PredSGT, ir.PredULT, ir.PredUGT:
			return ir.False
		}
	}
	ca, aOK := intConst(a)
	cb, bOK := intConst(b)
	if !aOK || !bOK {
		return nil
	}
	bits := ca.Type().(*ir.IntType).Bits
	x, y := ca.V, cb.V
	ux, uy := toUnsigned(x, bits), toUnsigned(y, bits)
	var r bool
	switch in.Pred() {
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
		return nil
	}
	return ir.Bool(r)
}

func foldSelect(in *ir.Instruction) ir.Value {
	cond, t, f := in.Operand(0), in.Operand(1), in.Operand(2)
	// select c, x, x  ->  x. This is the fold that makes phi-node
	// coalescing pay off: after coalescing, both arms load the same slot.
	if ir.ValuesEqual(t, f) {
		return t
	}
	if c, ok := intConst(cond); ok {
		if c.IsZero() {
			return f
		}
		return t
	}
	// select c, x, undef -> x (and symmetrically).
	if _, ok := f.(*ir.Undef); ok {
		return t
	}
	if _, ok := t.(*ir.Undef); ok {
		return f
	}
	return nil
}

func foldCast(in *ir.Instruction) ir.Value {
	c, ok := intConst(in.Operand(0))
	if !ok {
		return nil
	}
	to, ok := in.Type().(*ir.IntType)
	if !ok {
		return nil
	}
	from := c.Type().(*ir.IntType)
	switch in.Op() {
	case ir.OpTrunc, ir.OpSExt:
		return ir.NewConstInt(to, c.V)
	case ir.OpZExt:
		return ir.NewConstInt(to, int64(toUnsigned(c.V, from.Bits)))
	}
	return nil
}
