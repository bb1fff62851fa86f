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

import (
	"fmt"
	"strconv"
	"strings"
)

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

func (t *VoidType) String() string { return "void" }
func (t *IntType) String() string {
	switch t.Bits {
	case 1:
		return "i1"
	case 8:
		return "i8"
	case 16:
		return "i16"
	case 32:
		return "i32"
	case 64:
		return "i64"
	}
	return "i" + strconv.Itoa(t.Bits)
}
func (t *FloatType) String() string {
	switch t.Bits {
	case 32:
		return "float"
	case 64:
		return "double"
	}
	return ""
}
func (t *PointerType) String() string { return t.Elem.String() + "*" }
func (t *ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
}
func (t *StructType) String() string {
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (t *FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	if t.Variadic {
		parts = append(parts, "...")
	}
	return fmt.Sprintf("%s (%s)", t.Ret, strings.Join(parts, ", "))
}
func (t *LabelType) String() string { return "label" }

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

// IsLabel reports whether t is the label type.
func IsLabel(t Type) bool { _, ok := t.(*LabelType); return ok }

// LandingPadResultType is the result type of landingpad instructions,
// modelling LLVM's canonical {i8*, i32} personality result.
var LandingPadResultType = StructOf(PtrTo(I8), I32)
