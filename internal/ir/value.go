package ir

import (
	"fmt"
	"math"
	"slices"
)

// Value is any entity that can appear as an instruction operand: results
// of instructions, function arguments, constants, basic-block labels,
// functions and global variables.
type Value interface {
	// Type returns the type of the value.
	Type() Type
}

// Use records a single operand slot referring to a value.
type Use struct {
	User  *Instruction
	Index int
}

// usable is implemented by values that maintain a use list and can
// therefore be targets of ReplaceAllUsesWith.
type usable interface {
	Value
	addUse(Use)
	delUse(Use)
	uses() []Use
	reserve(n int)
}

// useList is a small embedded helper maintaining operand back-references.
type useList struct{ us []Use }

func (l *useList) addUse(u Use) { l.us = append(l.us, u) }

func (l *useList) delUse(u Use) {
	for i := range l.us {
		if l.us[i] == u {
			last := len(l.us) - 1
			l.us[i] = l.us[last]
			// The vacated slot stays in the backing array: cleared, or it
			// would keep the former user — and through its parent links
			// the whole body it sits in — alive for as long as the list.
			l.us[last] = Use{}
			l.us = l.us[:last]
			return
		}
	}
	panic(fmt.Sprintf("ir: removing unknown use {%p,%d}", u.User, u.Index))
}

func (l *useList) uses() []Use { return l.us }

func (l *useList) reserve(n int) { l.us = slices.Grow(l.us, n) }

// UsesOf returns the operand slots currently referring to v. Constants,
// functions and globals do not track uses and yield nil.
func UsesOf(v Value) []Use {
	if u, ok := v.(usable); ok {
		return u.uses()
	}
	return nil
}

// ReserveUses makes room in v's use list for n more uses, for a caller
// about to add that many operands referring to v.
func ReserveUses(v Value, n int) {
	if u, ok := v.(usable); ok {
		u.reserve(n)
	}
}

// HasUses reports whether any instruction currently uses v.
func HasUses(v Value) bool { return len(UsesOf(v)) > 0 }

// ReplaceAllUsesWith rewrites every operand referring to old so that it
// refers to new instead. old must be a use-tracked value (instruction,
// argument or block). new's use list grows once, by as many uses as old
// has, before they move.
func ReplaceAllUsesWith(old, new Value) {
	u, ok := old.(usable)
	if !ok {
		panic(fmt.Sprintf("ir: ReplaceAllUsesWith on non-tracked %T", old))
	}
	if old == new {
		return
	}
	ReserveUses(new, len(u.uses()))
	for len(u.uses()) > 0 {
		use := u.uses()[0]
		use.User.SetOperand(use.Index, new)
	}
}

// Argument is a formal parameter of a function.
type Argument struct {
	useList
	name   string
	typ    Type
	parent *Function
	index  int
}

// Type returns the argument's type.
func (a *Argument) Type() Type { return a.typ }

// Name returns the argument's name.
func (a *Argument) Name() string { return a.name }

// SetName renames the argument.
func (a *Argument) SetName(name string) { a.name = name }

// Parent returns the function the argument belongs to.
func (a *Argument) Parent() *Function { return a.parent }

// Index returns the position of the argument in the parameter list.
func (a *Argument) Index() int { return a.index }

// Constant is implemented by constant values.
type Constant interface {
	Value
	isConstant()
}

// ConstInt is an integer constant. The value is stored sign-extended.
type ConstInt struct {
	typ *IntType
	V   int64
}

// NewConstInt returns the integer constant of the given type and value,
// truncated/sign-extended to the type's width.
func NewConstInt(t *IntType, v int64) *ConstInt {
	return &ConstInt{typ: t, V: truncExtend(v, t.Bits)}
}

// truncExtend truncates v to bits and sign-extends the result.
func truncExtend(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return v << shift >> shift
}

// Type returns the constant's integer type.
func (c *ConstInt) Type() Type { return c.typ }

func (c *ConstInt) isConstant() {}

// IsZero reports whether the constant is 0.
func (c *ConstInt) IsZero() bool { return c.V == 0 }

// Bool returns the i1 constant for b.
func Bool(b bool) *ConstInt {
	if b {
		return True
	}
	return False
}

// Canonical boolean constants.
var (
	True  = &ConstInt{typ: I1, V: -1} // i1 1 (sign-extended)
	False = &ConstInt{typ: I1, V: 0}
)

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	typ *FloatType
	V   float64
}

// NewConstFloat returns the floating-point constant of the given type.
func NewConstFloat(t *FloatType, v float64) *ConstFloat {
	if t.Bits == 32 {
		v = float64(float32(v))
	}
	return &ConstFloat{typ: t, V: v}
}

// Type returns the constant's float type.
func (c *ConstFloat) Type() Type { return c.typ }

func (c *ConstFloat) isConstant() {}

// Undef is an undefined value of a given type. The merging code
// generators introduce undef for phi incoming edges that can never be
// taken when executing the function the phi originated from.
type Undef struct{ typ Type }

// NewUndef returns an undef value of type t.
func NewUndef(t Type) *Undef { return &Undef{typ: t} }

// Type returns the undef's type.
func (u *Undef) Type() Type { return u.typ }

func (u *Undef) isConstant() {}

// ConstNull is the null pointer constant of a pointer type.
type ConstNull struct{ typ *PointerType }

// NewConstNull returns the null constant of pointer type t.
func NewConstNull(t *PointerType) *ConstNull { return &ConstNull{typ: t} }

// Type returns the null constant's pointer type.
func (c *ConstNull) Type() Type { return c.typ }

func (c *ConstNull) isConstant() {}

// ValuesEqual reports whether a and b are the same SSA value. For
// constants equality is structural; for all other values it is identity.
func ValuesEqual(a, b Value) bool {
	if a == b {
		return true
	}
	switch a := a.(type) {
	case *ConstInt:
		b, ok := b.(*ConstInt)
		return ok && TypesEqual(a.typ, b.typ) && a.V == b.V
	case *ConstFloat:
		b, ok := b.(*ConstFloat)
		return ok && TypesEqual(a.typ, b.typ) &&
			(a.V == b.V || (math.IsNaN(a.V) && math.IsNaN(b.V)))
	case *Undef:
		b, ok := b.(*Undef)
		return ok && TypesEqual(a.typ, b.typ)
	case *ConstNull:
		b, ok := b.(*ConstNull)
		return ok && TypesEqual(a.typ, b.typ)
	}
	return false
}

// IsConstant reports whether v is a constant value.
func IsConstant(v Value) bool {
	_, ok := v.(Constant)
	return ok
}

// Placeholder is a temporary use-tracked value standing in for a local
// that has not been defined yet. Parsers create placeholders for forward
// references and replace them with ReplaceAllUsesWith once the real
// definition is seen. A well-formed function contains no placeholders.
type Placeholder struct {
	useList
	typ  Type
	Name string
}

// NewPlaceholder returns a placeholder of type t named name.
func NewPlaceholder(t Type, name string) *Placeholder {
	return &Placeholder{typ: t, Name: name}
}

// Type returns the placeholder's declared type.
func (p *Placeholder) Type() Type { return p.typ }

// GlobalVar is a module-level variable; its value is a pointer to the
// variable's storage.
type GlobalVar struct {
	name    string
	ValueTy Type
	Init    Constant // may be nil for external globals
}

// NewGlobalVar returns a global variable named name holding a value of
// type valueTy.
func NewGlobalVar(name string, valueTy Type, init Constant) *GlobalVar {
	return &GlobalVar{name: name, ValueTy: valueTy, Init: init}
}

// Type returns the pointer type of the global.
func (g *GlobalVar) Type() Type { return PtrTo(g.ValueTy) }

// Name returns the global's name.
func (g *GlobalVar) Name() string { return g.name }

func (g *GlobalVar) isConstant() {}
