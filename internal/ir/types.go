// Package ir implements a typed SSA intermediate representation modelled
// on LLVM IR. It provides the substrate that the function-merging
// algorithms (FMSA and SalSSA) operate on: modules, functions, basic
// blocks, instructions with explicit operand use-lists, phi-nodes, and
// the invoke/landingpad exception model.
//
// The representation keeps every label reference (branch targets, switch
// destinations, invoke successors, phi incoming blocks) in the ordinary
// operand list as *Block values, mirroring the paper's observation that
// "labels are used exclusively to represent control flow". This lets the
// merging code generators remap value and label operands uniformly.
package ir

import "strconv"

// Type is the interface implemented by all IR types.
type Type interface {
	// String returns the textual form of the type (e.g. "i32", "i8*").
	String() string
	// isType is a marker restricting implementations to this package.
	isType()
}

// VoidType is the type of functions returning no value.
type VoidType struct{}

// IntType is an integer type of a fixed bit width.
type IntType struct{ Bits int }

// FloatType is a floating-point type of 32 or 64 bits.
type FloatType struct{ Bits int }

// PointerType is a pointer to a value of the element type.
type PointerType struct{ Elem Type }

// ArrayType is a fixed-length sequence of elements.
type ArrayType struct {
	Len  int
	Elem Type
}

// StructType is a literal structure type.
type StructType struct{ Fields []Type }

// FuncType describes a function signature.
type FuncType struct {
	Ret      Type
	Params   []Type
	Variadic bool
}

// LabelType is the type of basic-block labels.
type LabelType struct{}

func (*VoidType) isType()    {}
func (*IntType) isType()     {}
func (*FloatType) isType()   {}
func (*PointerType) isType() {}
func (*ArrayType) isType()   {}
func (*StructType) isType()  {}
func (*FuncType) isType()    {}
func (*LabelType) isType()   {}

// Singleton types shared across the package. Types are compared
// structurally (TypesEqual), so sharing is an optimisation only.
var (
	Void  = &VoidType{}
	I1    = &IntType{Bits: 1}
	I8    = &IntType{Bits: 8}
	I16   = &IntType{Bits: 16}
	I32   = &IntType{Bits: 32}
	I64   = &IntType{Bits: 64}
	F32   = &FloatType{Bits: 32}
	F64   = &FloatType{Bits: 64}
	Label = &LabelType{}
)

// IntN returns the canonical integer type with the given bit width.
func IntN(bits int) *IntType {
	switch bits {
	case 1:
		return I1
	case 8:
		return I8
	case 16:
		return I16
	case 32:
		return I32
	case 64:
		return I64
	default:
		return &IntType{Bits: bits}
	}
}

// PtrTo returns the pointer type to elem.
func PtrTo(elem Type) *PointerType { return &PointerType{Elem: elem} }

// ArrayOf returns the array type of n elements of elem.
func ArrayOf(n int, elem Type) *ArrayType { return &ArrayType{Len: n, Elem: elem} }

// StructOf returns the struct type with the given field types.
func StructOf(fields ...Type) *StructType { return &StructType{Fields: fields} }

// FuncOf returns the function type ret(params...).
func FuncOf(ret Type, params ...Type) *FuncType {
	return &FuncType{Ret: ret, Params: params}
}

// AppendType appends the textual form of t ("i32", "i8*",
// "{i8*, i32}", "i32 (i8*, ...)") to dst and returns the extended
// buffer: the package's one type printer, which every String method
// calls. Hashing code prints into a buffer it owns and so allocates
// nothing.
func AppendType(dst []byte, t Type) []byte {
	switch t := t.(type) {
	case *VoidType:
		return append(dst, "void"...)
	case *IntType:
		return strconv.AppendInt(append(dst, 'i'), int64(t.Bits), 10)
	case *FloatType:
		switch t.Bits {
		case 32:
			return append(dst, "float"...)
		case 64:
			return append(dst, "double"...)
		}
		return dst
	case *PointerType:
		return append(AppendType(dst, t.Elem), '*')
	case *ArrayType:
		dst = strconv.AppendInt(append(dst, '['), int64(t.Len), 10)
		return append(AppendType(append(dst, " x "...), t.Elem), ']')
	case *StructType:
		return append(appendTypeList(append(dst, '{'), t.Fields, false), '}')
	case *FuncType:
		dst = append(AppendType(dst, t.Ret), " ("...)
		return append(appendTypeList(dst, t.Params, t.Variadic), ')')
	case *LabelType:
		return append(dst, "label"...)
	}
	return dst
}

// appendTypeList appends ts separated by ", ", then "..." when
// variadic.
func appendTypeList(dst []byte, ts []Type, variadic bool) []byte {
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendType(dst, t)
	}
	if variadic {
		if len(ts) > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, "..."...)
	}
	return dst
}

// singletons are the shared leaf types, whose texts singletonText
// prints once so that the printer's commonest String calls allocate
// nothing.
var singletons = [...]Type{Void, I1, I8, I16, I32, I64, F32, F64, Label}

var singletonText = func() (texts [len(singletons)]string) {
	for i, t := range singletons {
		texts[i] = string(AppendType(nil, t))
	}
	return texts
}()

// typeString is every type's String: a singleton's stored text, else
// AppendType into a stack buffer.
func typeString(t Type) string {
	for i, u := range singletons {
		if t == u {
			return singletonText[i]
		}
	}
	var buf [64]byte
	return string(AppendType(buf[:0], t))
}

func (t *VoidType) String() string    { return typeString(t) }
func (t *IntType) String() string     { return typeString(t) }
func (t *FloatType) String() string   { return typeString(t) }
func (t *PointerType) String() string { return typeString(t) }
func (t *ArrayType) String() string   { return typeString(t) }
func (t *StructType) String() string  { return typeString(t) }
func (t *FuncType) String() string    { return typeString(t) }
func (t *LabelType) String() string   { return typeString(t) }

// TypesEqual reports whether a and b are structurally identical types.
func TypesEqual(a, b Type) bool {
	if a == b {
		return true
	}
	switch a := a.(type) {
	case *VoidType:
		_, ok := b.(*VoidType)
		return ok
	case *IntType:
		b, ok := b.(*IntType)
		return ok && a.Bits == b.Bits
	case *FloatType:
		b, ok := b.(*FloatType)
		return ok && a.Bits == b.Bits
	case *PointerType:
		b, ok := b.(*PointerType)
		return ok && TypesEqual(a.Elem, b.Elem)
	case *ArrayType:
		b, ok := b.(*ArrayType)
		return ok && a.Len == b.Len && TypesEqual(a.Elem, b.Elem)
	case *StructType:
		b, ok := b.(*StructType)
		if !ok || len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if !TypesEqual(a.Fields[i], b.Fields[i]) {
				return false
			}
		}
		return true
	case *FuncType:
		b, ok := b.(*FuncType)
		if !ok || a.Variadic != b.Variadic || len(a.Params) != len(b.Params) {
			return false
		}
		if !TypesEqual(a.Ret, b.Ret) {
			return false
		}
		for i := range a.Params {
			if !TypesEqual(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	case *LabelType:
		_, ok := b.(*LabelType)
		return ok
	}
	return false
}

// IsVoid reports whether t is the void type.
func IsVoid(t Type) bool { _, ok := t.(*VoidType); return ok }

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(*IntType); return ok }

// LandingPadResultType is the result type of landingpad instructions,
// modelling LLVM's canonical {i8*, i32} personality result.
var LandingPadResultType = StructOf(PtrTo(I8), I32)
