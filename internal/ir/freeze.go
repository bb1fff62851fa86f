package ir

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Frozen bodies. A function body kept only to be read again much later
// — a merge family's original, say — costs as IR about 190 bytes an
// instruction spread over thousands of small objects the collector must
// trace, and it keeps them from the pools. Freeze packs a body into one
// record whose bulk holds no pointers (int32 slices and one string of
// names), so the body itself can be released at once; Thaw builds it
// again, through the pools, when it is needed.
//
// The record refers to a local value (instruction, block, parameter) by
// its position in the body, and to every other operand and every result
// type by an index into a small table holding the original pointers, so
// a thawed body shares its constants, globals, callees and types with
// the original.

// Frozen is one function body packed by Freeze.
type Frozen struct {
	name string
	sig  *FuncType
	typ  *PointerType
	// code is the body in block order: per block its instruction count,
	// then per instruction a header word (opcode, predicate, Cleanup and
	// result type, see headerPred), its operand count and one reference
	// per operand (see refInstr).
	code []int32
	// names holds the parameter names, then the block names, then the
	// instruction names, back to back; ends[i] is where the i-th ends.
	names string
	ends  []int32
	// values holds, once each, the operands that track no uses
	// (constants, undef, globals, functions); types the result types.
	values []Value
	types  []Type
	// blocks and instrs count the body's blocks and instructions.
	blocks, instrs int32
}

// An operand reference is an index shifted left by refBits over a tag
// saying what it indexes: the body's instructions in block order, its
// blocks, its parameters, or the record's values table.
const (
	refInstr = iota
	refBlock
	refParam
	refValue
	refBits = 2
)

// The header word of an instruction holds its opcode in the low byte,
// its predicate in the next, then the Cleanup flag, then the index of
// its result type in the types table. An index that does not fit
// (typeEscape or more) is written as typeEscape, with the index in the
// word after the header.
const (
	headerPred    = 8
	headerCleanup = 1 << 16
	headerType    = 17
	typeEscape    = 1<<(32-headerType) - 1
)

// freezer is the scratch of Freeze and Thaw, pooled. Freeze numbers
// the first instruction of each block (start) and builds the two tables
// with their indexes; Thaw lists the instructions it makes (ins) and
// counts the uses of each local value (uses).
type freezer struct {
	start   []int32
	values  []Value
	types   []Type
	valueAt map[Value]int32
	typeAt  map[Type]int32
	ins     []*Instruction
	uses    []int32
}

var freezers = sync.Pool{New: func() any {
	return &freezer{valueAt: map[Value]int32{}, typeAt: map[Type]int32{}}
}}

// Freeze packs f's body into a record from which Thaw builds an equal
// body. f is only read. Every use-tracked operand must belong to f's
// body (a self-contained body, the kind Release takes apart), or Freeze
// panics.
func Freeze(f *Function) *Frozen {
	fz := freezers.Get().(*freezer)
	defer fz.reset()
	z := &Frozen{name: f.name, sig: f.sig, typ: f.typ, blocks: int32(len(f.Blocks))}
	// One pass to size the code and the names exactly.
	nameLen, code := 0, len(f.Blocks)
	for _, p := range f.params {
		nameLen += len(p.name)
	}
	for _, b := range f.Blocks {
		fz.start = append(fz.start, z.instrs)
		z.instrs += int32(len(b.instrs))
		nameLen += len(b.name)
		for _, in := range b.instrs {
			nameLen += len(in.name)
			code += 2 + len(in.operands)
		}
	}
	z.code = make([]int32, 0, code)
	z.ends = make([]int32, 0, len(f.params)+len(f.Blocks)+int(z.instrs))
	var names strings.Builder
	names.Grow(nameLen)
	name := func(s string) {
		names.WriteString(s)
		z.ends = append(z.ends, int32(names.Len()))
	}
	for _, p := range f.params {
		name(p.name)
	}
	for _, b := range f.Blocks {
		name(b.name)
	}
	for _, b := range f.Blocks {
		z.code = append(z.code, int32(len(b.instrs)))
		for _, in := range b.instrs {
			name(in.name)
			t, ok := fz.typeAt[in.typ]
			if !ok {
				t = int32(len(fz.types))
				fz.typeAt[in.typ] = t
				fz.types = append(fz.types, in.typ)
			}
			h := uint32(in.op) | uint32(in.pred)<<headerPred | uint32(min(t, typeEscape))<<headerType
			if in.Cleanup {
				h |= headerCleanup
			}
			z.code = append(z.code, int32(h))
			if t >= typeEscape {
				z.code = append(z.code, t)
			}
			z.code = append(z.code, int32(len(in.operands)))
			for _, v := range in.operands {
				z.code = append(z.code, fz.ref(f, v))
			}
		}
	}
	z.names = names.String()
	z.values, z.types = slices.Clone(fz.values), slices.Clone(fz.types)
	return z
}

// reset clears the scratch, so the pool pins nothing, and pools it.
func (fz *freezer) reset() {
	clear(fz.values)
	clear(fz.types)
	clear(fz.valueAt)
	clear(fz.typeAt)
	clear(fz.ins)
	fz.start, fz.values, fz.types, fz.ins = fz.start[:0], fz.values[:0], fz.types[:0], fz.ins[:0]
	freezers.Put(fz)
}

// ref returns the reference to operand v of f's body, adding v to the
// values table when it tracks no uses.
func (fz *freezer) ref(f *Function, v Value) int32 {
	local := func(i, tag int32) int32 { return i<<refBits | tag }
	switch x := v.(type) {
	case *Instruction:
		if x.parent != nil && x.parent.parent == f {
			return local(fz.start[x.parent.index]+x.pos, refInstr)
		}
	case *Block:
		if x.parent == f {
			return local(x.index, refBlock)
		}
	case *Argument:
		if x.parent == f {
			return local(int32(x.index), refParam)
		}
	case *Placeholder:
	default:
		i, ok := fz.valueAt[v]
		if !ok {
			i = int32(len(fz.values))
			fz.valueAt[v] = i
			fz.values = append(fz.values, v)
		}
		return local(i, refValue)
	}
	panic(fmt.Sprintf("ir: Freeze of @%s: an operand (%T) from outside the body", f.name, v))
}

// Values returns the operands of the frozen body that track no uses —
// constants, undef, globals and functions — once each. The slice is
// shared with the record; callers must not modify it.
func (z *Frozen) Values() []Value { return z.values }

// Bytes returns the memory the record holds: its header, arrays and
// tables (the values and types they point at are shared, not counted).
func (z *Frozen) Bytes() int {
	const word, iface = 4, int(unsafe.Sizeof(Value(nil)))
	return int(unsafe.Sizeof(*z)) + word*(cap(z.code)+cap(z.ends)) + len(z.names) +
		iface*(cap(z.values)+cap(z.types))
}

// Thaw builds the frozen body again as a fresh detached function of the
// original's name, signature and parameter names, drawing its blocks
// and instructions from the pools. Every operand is set in the original
// order, so phi incomings, switch cases and callees come back as they
// were; the body shares the original's constants, globals, callees and
// types.
func (z *Frozen) Thaw() *Function {
	fz := freezers.Get().(*freezer)
	defer fz.reset()
	nameAt := func(i int) string {
		from := int32(0)
		if i > 0 {
			from = z.ends[i-1]
		}
		return z.names[from:z.ends[i]]
	}
	// Every use list is sized once: uses counts the operands naming each
	// instruction, then each block, then each parameter.
	nparams := len(z.sig.Params)
	fz.uses = slices.Grow(fz.uses[:0], int(z.instrs+z.blocks)+nparams)[:int(z.instrs+z.blocks)+nparams]
	clear(fz.uses)
	for k := 0; k < len(z.code); {
		count := int(z.code[k])
		k++
		for range count {
			if uint32(z.code[k])>>headerType == typeEscape {
				k++
			}
			nops := int(z.code[k+1])
			for _, r := range z.code[k+2 : k+2+nops] {
				switch x := r >> refBits; r & (1<<refBits - 1) {
				case refInstr:
					fz.uses[x]++
				case refBlock:
					fz.uses[z.instrs+x]++
				case refParam:
					fz.uses[z.instrs+z.blocks+x]++
				}
			}
			k += 2 + nops
		}
	}
	f := newFunction(z.name, z.sig, z.typ)
	for i, p := range f.params {
		p.name = nameAt(i)
		if n := fz.uses[int(z.instrs+z.blocks)+i]; n > 0 {
			p.us = make([]Use, 0, n)
		}
	}
	f.Blocks = make([]*Block, 0, z.blocks)
	for i := range int(z.blocks) {
		b := f.NewBlockIn(nameAt(nparams + i))
		b.us = slices.Grow(b.us, int(fz.uses[int(z.instrs)+i]))
	}
	// Every instruction exists before any operand is set: an operand may
	// refer forward.
	for i := range int(z.instrs) {
		in := allocInstr(0)
		in.us = slices.Grow(in.us, int(fz.uses[i]))
		fz.ins = append(fz.ins, in)
	}
	names := nparams + len(f.Blocks)
	k, next := 0, 0
	for _, b := range f.Blocks {
		count := int(z.code[k])
		k++
		b.instrs = slices.Grow(b.instrs, count)
		for range count {
			in := fz.ins[next]
			h := uint32(z.code[k])
			t := int32(h >> headerType)
			k++
			if t == typeEscape {
				t = z.code[k]
				k++
			}
			nops := int(z.code[k])
			k++
			in.op, in.pred, in.Cleanup = Opcode(h), CmpPred(h>>headerPred), h&headerCleanup != 0
			in.name, in.typ = nameAt(names+next), z.types[t]
			in.operands = slices.Grow(in.operands, nops)[:nops]
			for i, r := range z.code[k : k+nops] {
				var v Value
				switch x := r >> refBits; r & (1<<refBits - 1) {
				case refInstr:
					v = fz.ins[x]
				case refBlock:
					v = f.Blocks[x]
				case refParam:
					v = f.params[x]
				default:
					v = z.values[x]
				}
				in.operands[i] = v
				if u, ok := v.(usable); ok {
					u.addUse(Use{User: in, Index: i})
				}
			}
			k += nops
			next++
			b.Append(in)
		}
	}
	return f
}
