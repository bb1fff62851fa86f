package align

// Mergeability-class interning. Mergeable is an equivalence-style
// predicate: whether two entries may be aligned depends only on a small
// structural key of each entry (opcode, result type, operand-type
// vector, and the operands that must remain literal constants after
// merging — comparison predicate, alloca type, callee identity, switch
// case values, struct GEP indices). The Interner folds that key into one
// integer per entry, computed once per function, so the O(n·m) inner
// loops of the alignment DPs compare two ints instead of re-walking
// types for every cell.
//
// The invariant, enforced by the differential property test in
// classes_test.go:
//
//	ClassesMatch(Class(a), Class(b)) == Mergeable(a, b)
//
// for every pair of entries interned by the same Interner.

import (
	"encoding/binary"
	"sync"

	"repro/internal/ir"
)

// ClassLabel is the class ID shared by every block label: labels always
// match labels and nothing else.
const ClassLabel int32 = 0

// classSolo marks entries that are mergeable with nothing — not even a
// structural twin. Mergeable rejects GEPs whose base is not a pointer or
// whose struct indices are not integer constants unconditionally, so two
// such entries must not match even when their keys agree.
const classSolo int32 = -1

// ClassesMatch reports whether entries of classes ca and cb may be
// aligned as a matching pair. It is exactly Mergeable on the underlying
// entries, at the cost of two integer comparisons.
func ClassesMatch(ca, cb int32) bool { return ca == cb && ca != classSolo }

// Interner assigns mergeability-class IDs. One Interner must be shared
// by every function participating in one alignment universe (a whole
// Optimize run): class IDs from different Interners are not comparable.
// All methods are safe for concurrent use.
type Interner struct {
	mu sync.Mutex
	// typeByPtr is the pointer-identity fast path over typeByKey; the ir
	// package shares singleton types, so most lookups end here.
	typeByPtr map[ir.Type]int32
	typeByKey map[string]int32
	// valueID tracks callee identity: Mergeable compares callees by
	// pointer equality, so every distinct callee value gets its own ID.
	valueID map[ir.Value]int32
	classes map[string]int32
	buf     []byte
	tbuf    []byte
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner {
	return &Interner{
		typeByPtr: make(map[ir.Type]int32),
		typeByKey: make(map[string]int32),
		valueID:   make(map[ir.Value]int32),
		classes:   make(map[string]int32),
	}
}

// Class returns the mergeability class of one entry.
func (it *Interner) Class(e Entry) int32 {
	if e.IsLabel() {
		return ClassLabel
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.classLocked(e.Instr)
}

// Classes interns every entry of seq, appending the class IDs to dst
// (which may be nil) and returning the extended slice.
func (it *Interner) Classes(seq []Entry, dst []int32) []int32 {
	if cap(dst)-len(dst) < len(seq) {
		grown := make([]int32, len(dst), len(dst)+len(seq))
		copy(grown, dst)
		dst = grown
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	for _, e := range seq {
		if e.IsLabel() {
			dst = append(dst, ClassLabel)
			continue
		}
		dst = append(dst, it.classLocked(e.Instr))
	}
	return dst
}

// NumClasses returns the number of distinct instruction classes interned
// so far (labels and solo entries excluded).
func (it *Interner) NumClasses() int {
	it.mu.Lock()
	defer it.mu.Unlock()
	return len(it.classes)
}

// classLocked builds the structural key of x and interns it. Every field
// Mergeable inspects — and nothing else — goes into the key, so key
// equality coincides with mergeability.
func (it *Interner) classLocked(x *ir.Instruction) int32 {
	b := it.buf[:0]
	b = binary.AppendUvarint(b, uint64(x.Op()))
	b = binary.AppendUvarint(b, uint64(it.typeIDLocked(x.Type())))
	n := x.NumOperands()
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		b = binary.AppendUvarint(b, uint64(it.typeIDLocked(x.Operand(i).Type())))
	}
	switch x.Op() {
	case ir.OpICmp, ir.OpFCmp:
		b = binary.AppendUvarint(b, uint64(x.Pred()))
	case ir.OpAlloca:
		b = binary.AppendUvarint(b, uint64(it.typeIDLocked(x.AllocTy())))
	case ir.OpCall, ir.OpInvoke:
		b = binary.AppendUvarint(b, uint64(it.valueIDLocked(x.Callee())))
	case ir.OpSwitch:
		// Case values must be identical; the case count is already pinned
		// by the operand count ([v, default, c0, d0, ...]).
		for i := 2; i+1 < n; i += 2 {
			b = binary.AppendVarint(b, x.Operand(i).(*ir.ConstInt).V)
		}
	case ir.OpGEP:
		var solo bool
		b, solo = appendGEPKey(b, x)
		if solo {
			it.buf = b
			return classSolo
		}
	}
	it.buf = b
	id, ok := it.classes[string(b)]
	if !ok {
		// IDs start at 1: 0 is ClassLabel, -1 is classSolo.
		id = int32(len(it.classes)) + 1
		it.classes[string(b)] = id
	}
	return id
}

// appendGEPKey mirrors Mergeable's GEP walk: stepping through the
// indexed type, every index at a struct level must be an integer
// constant and goes into the key. A GEP failing the walk's structural
// requirements is solo — Mergeable rejects it against any partner.
// The walk of a mergeability partner is identical by induction: equal
// operand-type vectors pin the starting type, and equal constants at
// every struct level pin each step.
func appendGEPKey(b []byte, x *ir.Instruction) ([]byte, bool) {
	tx, ok := x.Operand(0).Type().(*ir.PointerType)
	if !ok {
		return b, true
	}
	cur := tx.Elem
	for i := 2; i < x.NumOperands(); i++ {
		if st, isStruct := cur.(*ir.StructType); isStruct {
			ix, okx := x.Operand(i).(*ir.ConstInt)
			if !okx {
				return b, true
			}
			b = binary.AppendVarint(b, ix.V)
			cur = st.Fields[ix.V]
			continue
		}
		if at, isArr := cur.(*ir.ArrayType); isArr {
			cur = at.Elem
		}
	}
	return b, false
}

// typeIDLocked interns t structurally. The pointer map shortcuts the
// common case (the ir package hands out singleton scalar types); the
// structural key matches TypesEqual exactly, so two structurally equal
// types always map to one ID.
func (it *Interner) typeIDLocked(t ir.Type) int32 {
	if id, ok := it.typeByPtr[t]; ok {
		return id
	}
	it.tbuf = appendTypeKey(it.tbuf[:0], t)
	id, ok := it.typeByKey[string(it.tbuf)]
	if !ok {
		id = int32(len(it.typeByKey)) + 1
		it.typeByKey[string(it.tbuf)] = id
	}
	it.typeByPtr[t] = id
	return id
}

func (it *Interner) valueIDLocked(v ir.Value) int32 {
	if id, ok := it.valueID[v]; ok {
		return id
	}
	id := int32(len(it.valueID)) + 1
	it.valueID[v] = id
	return id
}

// appendTypeKey writes an injective structural encoding of t: distinct
// kind tags plus varint length prefixes make the key prefix-free, so key
// equality is exactly TypesEqual.
func appendTypeKey(b []byte, t ir.Type) []byte {
	switch t := t.(type) {
	case *ir.VoidType:
		return append(b, 'v')
	case *ir.IntType:
		return binary.AppendUvarint(append(b, 'i'), uint64(t.Bits))
	case *ir.FloatType:
		return binary.AppendUvarint(append(b, 'f'), uint64(t.Bits))
	case *ir.PointerType:
		return appendTypeKey(append(b, 'p'), t.Elem)
	case *ir.ArrayType:
		b = binary.AppendUvarint(append(b, 'a'), uint64(t.Len))
		return appendTypeKey(b, t.Elem)
	case *ir.StructType:
		b = binary.AppendUvarint(append(b, 's'), uint64(len(t.Fields)))
		for _, f := range t.Fields {
			b = appendTypeKey(b, f)
		}
		return b
	case *ir.FuncType:
		b = append(b, 'F')
		if t.Variadic {
			b = append(b, '+')
		}
		b = appendTypeKey(b, t.Ret)
		b = binary.AppendUvarint(b, uint64(len(t.Params)))
		for _, p := range t.Params {
			b = appendTypeKey(b, p)
		}
		return b
	case *ir.LabelType:
		return append(b, 'l')
	}
	panic("align: unknown type in class key")
}
