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
	"slices"
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
//
// Keys are sequences of 32-bit words, and the interner numbers every
// prefix of every key it has seen as one node of a trie held in a single
// map from (parent node, word) to child node: node 0 is the empty key,
// and two keys end at one node exactly when they are equal. A type's ID
// is the node its structural key ends at (kind tag, then widths, lengths
// and the IDs of its element types), so the interner's state is bounded
// by the distinct types, classes and callees it has seen, whatever
// objects carry the types — a parser or ir.PtrTo allocating a fresh
// type on every call costs nothing more.
type Interner struct {
	mu   sync.Mutex
	trie map[uint64]int32
	// lead[w] caches the node of the one-word key w, 0 until first met:
	// every key starts with a kind tag or an opcode. scalar[k][bits]
	// caches the ID of the integer (k = 0) or float (k = 1) type of that
	// width. Between them they spare the trie most lookups.
	lead   [classTag + 1<<8]int32
	scalar [2][65]int32
	// classOf[n] is the class of the key ending at node n, 0 while no
	// class key ends there. Classes are numbered densely, in the order
	// they are first seen.
	classOf    []int32
	numClasses int32
	// valueID tracks callee identity: Mergeable compares callees by
	// pointer equality, so every distinct callee value gets its own ID.
	valueID map[ir.Value]int32
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner {
	return &Interner{trie: make(map[uint64]int32), valueID: make(map[ir.Value]int32)}
}

// Reset empties it for reuse as a new universe, keeping its storage:
// a caller that interns many short-lived universes (a family trial's
// members) pools one Interner instead of growing a fresh one each time.
// It lets go of every callee it held.
func (it *Interner) Reset() {
	it.mu.Lock()
	defer it.mu.Unlock()
	clear(it.trie)
	clear(it.valueID)
	clear(it.classOf)
	it.lead, it.scalar, it.numClasses = [len(it.lead)]int32{}, [2][65]int32{}, 0
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
	dst = slices.Grow(dst, len(seq))
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
	return int(it.numClasses)
}

// Key words. A type key starts with its kind tag; a class key starts
// with classTag plus the opcode, so no class key is a type key.
const (
	tagVoid uint32 = iota + 1
	tagInt
	tagFloat
	tagPtr
	tagArray
	tagStruct
	tagFunc
	tagLabel
	classTag uint32 = 16
)

// step returns the node of key prefix n extended by the word w.
func (it *Interner) step(n int32, w uint32) int32 {
	k := uint64(uint32(n))<<32 | uint64(w)
	c, ok := it.trie[k]
	if !ok {
		c = int32(len(it.trie)) + 1
		it.trie[k] = c
	}
	return c
}

// leadLocked returns the node of the one-word key w.
func (it *Interner) leadLocked(w uint32) int32 {
	if it.lead[w] == 0 {
		it.lead[w] = it.step(0, w)
	}
	return it.lead[w]
}

// scalarLocked returns the ID of the integer (k = 0) or float (k = 1)
// type of the given width, whose kind tag is tag.
func (it *Interner) scalarLocked(k int, tag uint32, bits int) int32 {
	if bits < 0 || bits >= len(it.scalar[k]) {
		return it.stepInt(it.leadLocked(tag), int64(bits))
	}
	if it.scalar[k][bits] == 0 {
		it.scalar[k][bits] = it.stepInt(it.leadLocked(tag), int64(bits))
	}
	return it.scalar[k][bits]
}

// stepInt extends n by a 64-bit integer, low word first.
func (it *Interner) stepInt(n int32, v int64) int32 {
	return it.step(it.step(n, uint32(v)), uint32(uint64(v)>>32))
}

// classLocked walks the structural key of x through the trie and
// returns the class it ends at. Every field Mergeable inspects — and
// nothing else — goes into the key, so key equality coincides with
// mergeability.
func (it *Interner) classLocked(x *ir.Instruction) int32 {
	k := it.leadLocked(classTag + uint32(x.Op()))
	k = it.step(k, uint32(it.typeIDLocked(x.Type())))
	n := x.NumOperands()
	k = it.step(k, uint32(n))
	for i := 0; i < n; i++ {
		k = it.step(k, uint32(it.typeIDLocked(x.Operand(i).Type())))
	}
	switch x.Op() {
	case ir.OpICmp, ir.OpFCmp:
		k = it.step(k, uint32(x.Pred()))
	case ir.OpAlloca:
		k = it.step(k, uint32(it.typeIDLocked(x.AllocTy())))
	case ir.OpCall, ir.OpInvoke:
		k = it.step(k, uint32(it.valueIDLocked(x.Callee())))
	case ir.OpSwitch:
		// Case values must be identical; the case count is already pinned
		// by the operand count ([v, default, c0, d0, ...]).
		for i := 2; i+1 < n; i += 2 {
			k = it.stepInt(k, x.Operand(i).(*ir.ConstInt).V)
		}
	case ir.OpGEP:
		var solo bool
		if k, solo = it.gepKeyLocked(k, x); solo {
			return classSolo
		}
	}
	if int(k) >= len(it.classOf) {
		it.classOf = append(it.classOf, make([]int32, int(k)+1-len(it.classOf))...)
	}
	if it.classOf[k] == 0 {
		// IDs start at 1: 0 is ClassLabel, -1 is classSolo.
		it.numClasses++
		it.classOf[k] = it.numClasses
	}
	return it.classOf[k]
}

// gepKeyLocked mirrors Mergeable's GEP walk: stepping through the
// indexed type, every index at a struct level must be an integer
// constant and goes into the key. A GEP failing the walk's structural
// requirements is solo — Mergeable rejects it against any partner.
// The walk of a mergeability partner is identical by induction: equal
// operand-type vectors pin the starting type, and equal constants at
// every struct level pin each step.
func (it *Interner) gepKeyLocked(k int32, x *ir.Instruction) (int32, bool) {
	tx, ok := x.Operand(0).Type().(*ir.PointerType)
	if !ok {
		return k, true
	}
	cur := tx.Elem
	for i := 2; i < x.NumOperands(); i++ {
		if st, isStruct := cur.(*ir.StructType); isStruct {
			ix, okx := x.Operand(i).(*ir.ConstInt)
			if !okx {
				return k, true
			}
			k = it.stepInt(k, ix.V)
			cur = st.Fields[ix.V]
			continue
		}
		if at, isArr := cur.(*ir.ArrayType); isArr {
			cur = at.Elem
		}
	}
	return k, false
}

// typeIDLocked interns t structurally: its ID is the node its key ends
// at, the kind tag followed by widths, lengths and element type IDs.
// Tags and counts make the encoding injective, so two types share an ID
// exactly when TypesEqual holds.
func (it *Interner) typeIDLocked(t ir.Type) int32 {
	switch t := t.(type) {
	case *ir.VoidType:
		return it.leadLocked(tagVoid)
	case *ir.IntType:
		return it.scalarLocked(0, tagInt, t.Bits)
	case *ir.FloatType:
		return it.scalarLocked(1, tagFloat, t.Bits)
	case *ir.PointerType:
		elem := it.typeIDLocked(t.Elem)
		return it.step(it.leadLocked(tagPtr), uint32(elem))
	case *ir.ArrayType:
		elem := it.typeIDLocked(t.Elem)
		return it.step(it.stepInt(it.leadLocked(tagArray), int64(t.Len)), uint32(elem))
	case *ir.StructType:
		k := it.step(it.leadLocked(tagStruct), uint32(len(t.Fields)))
		for _, f := range t.Fields {
			k = it.step(k, uint32(it.typeIDLocked(f)))
		}
		return k
	case *ir.FuncType:
		k := it.step(it.leadLocked(tagFunc), uint32(btoi(t.Variadic)))
		k = it.step(k, uint32(it.typeIDLocked(t.Ret)))
		k = it.step(k, uint32(len(t.Params)))
		for _, p := range t.Params {
			k = it.step(k, uint32(it.typeIDLocked(p)))
		}
		return k
	case *ir.LabelType:
		return it.leadLocked(tagLabel)
	}
	panic("align: unknown type in class key")
}

func (it *Interner) valueIDLocked(v ir.Value) int32 {
	if id, ok := it.valueID[v]; ok {
		return id
	}
	id := int32(len(it.valueID)) + 1
	it.valueID[v] = id
	return id
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
