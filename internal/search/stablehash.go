package search

import (
	"math"
	"sync"

	"repro/internal/ir"
)

// Stable structural hashing, in the spirit of the optimistic global
// function merging hash: two functions that differ only in the names of
// their locals (registers, blocks, parameters) hash equal. Locals are
// canonicalized GVN-style by a local value numbering — parameters by
// position, blocks by position, instruction results by definition order —
// so the hash sees operand *shape*, never names. Constants hash
// structurally, globals and callees by symbol name, and a reference to
// the enclosing function hashes as "self" so mutually-renamed recursive
// clones still collide.
//
// Hash equality is a filter, never a verdict: callers confirm candidate
// duplicates with EqualFunctions before acting on them.

// fnv-1a 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hasher is an FNV-1a state. HashFunction's also owns scratch: base,
// the block numbering, and text, the buffer each type is printed into.
type hasher struct {
	h    uint64
	base []uint64
	text []byte
}

func newHasher() hasher { return hasher{h: fnvOffset} }

// hashers recycles HashFunction's hashers, scratch and all, so a hash
// allocates nothing once the scratch has grown to fit.
var hashers = sync.Pool{New: func() any { return new(hasher) }}

// word hashes x's eight bytes, low first. The state stays in a local
// for the whole word, so the multiply chain runs in registers.
func (s *hasher) word(x uint64) {
	h := s.h
	for i := 0; i < 8; i++ {
		h = (h ^ x&0xff) * fnvPrime
		x >>= 8
	}
	s.h = h
}

func (s *hasher) str(str string) { write(s, str) }

// typ hashes t's text as str would hash t.String().
func (s *hasher) typ(t ir.Type) {
	s.text = ir.AppendType(s.text[:0], t)
	write(s, s.text)
}

// write hashes b's bytes, then its length.
func write[T string | []byte](s *hasher, b T) {
	h := s.h
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	s.h = h
	s.word(uint64(len(b)))
}

// Operand tags: the leading word of every operand hash names the operand
// class, so (e.g.) argument 0 can never collide with local 0.
const (
	tagLocal uint64 = iota + 0x517a
	tagArg
	tagBlock
	tagConstInt
	tagConstFloat
	tagConstNull
	tagUndef
	tagGlobal
	tagFunc
	tagSelf
	tagOther
)

// hashOperand folds one operand of an instruction of f into s. Locals
// are numbered from the positions package ir maintains: parameters and
// blocks by Index(), instruction results by definition order, which is
// s.base[b.Index()] — the instruction count of the blocks before their
// block b — plus Index(). A local of another function, or a detached
// one, numbers 0.
func hashOperand(s *hasher, f *ir.Function, op ir.Value) {
	switch v := op.(type) {
	case *ir.Instruction:
		s.word(tagLocal)
		n := uint64(0)
		if b := v.Parent(); b != nil && b.Parent() == f {
			n = s.base[b.Index()] + uint64(v.Index())
		}
		s.word(n)
	case *ir.Argument:
		s.word(tagArg)
		s.word(localNumber(v.Parent() == f, v.Index()))
	case *ir.Block:
		s.word(tagBlock)
		s.word(localNumber(v.Parent() == f, v.Index()))
	case *ir.ConstInt:
		s.word(tagConstInt)
		s.typ(v.Type())
		s.word(uint64(v.V))
	case *ir.ConstFloat:
		s.word(tagConstFloat)
		s.typ(v.Type())
		s.word(math.Float64bits(v.V))
	case *ir.ConstNull:
		s.word(tagConstNull)
		s.typ(v.Type())
	case *ir.Undef:
		s.word(tagUndef)
		s.typ(v.Type())
	case *ir.GlobalVar:
		s.word(tagGlobal)
		s.str(v.Name())
	case *ir.Function:
		if v == f {
			s.word(tagSelf)
		} else {
			s.word(tagFunc)
			s.str(v.Name())
		}
	default:
		s.word(tagOther)
	}
}

func localNumber(own bool, index int) uint64 {
	if !own {
		return 0
	}
	return uint64(index)
}

// HashFunction returns the stable structural hash of f. Declarations
// hash their signature only.
func HashFunction(f *ir.Function) uint64 {
	s := hashers.Get().(*hasher)
	defer hashers.Put(s)
	s.h = fnvOffset
	s.typ(f.Sig())
	if f.IsDecl() {
		return s.h
	}
	s.base = s.base[:0]
	n := uint64(0)
	for _, b := range f.Blocks {
		s.base = append(s.base, n)
		n += uint64(b.Len())
	}
	s.word(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		s.word(uint64(len(b.Instrs())))
		for _, in := range b.Instrs() {
			s.word(uint64(in.Op()))
			s.typ(in.Type())
			s.word(uint64(in.Pred()))
			if in.AllocTy() != nil {
				s.typ(in.AllocTy())
			}
			if in.Cleanup {
				s.word(1)
			}
			s.word(uint64(in.NumOperands()))
			for _, op := range in.Operands() {
				hashOperand(s, f, op)
			}
		}
	}
	return s.h
}
