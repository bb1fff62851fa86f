package search

import (
	"math"

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

type hasher struct{ h uint64 }

func newHasher() hasher { return hasher{h: fnvOffset} }

func (s *hasher) word(x uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= x & 0xff
		s.h *= fnvPrime
		x >>= 8
	}
}

func (s *hasher) str(str string) {
	for i := 0; i < len(str); i++ {
		s.h ^= uint64(str[i])
		s.h *= fnvPrime
	}
	s.word(uint64(len(str)))
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
// base[b.Index()] — the instruction count of the blocks before their
// block b — plus Index(). A local of another function, or a detached
// one, numbers 0.
func hashOperand(s *hasher, f *ir.Function, base []uint64, op ir.Value) {
	switch v := op.(type) {
	case *ir.Instruction:
		s.word(tagLocal)
		n := uint64(0)
		if b := v.Parent(); b != nil && b.Parent() == f {
			n = base[b.Index()] + uint64(v.Index())
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
		s.str(v.Type().String())
		s.word(uint64(v.V))
	case *ir.ConstFloat:
		s.word(tagConstFloat)
		s.str(v.Type().String())
		s.word(math.Float64bits(v.V))
	case *ir.ConstNull:
		s.word(tagConstNull)
		s.str(v.Type().String())
	case *ir.Undef:
		s.word(tagUndef)
		s.str(v.Type().String())
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
	s := newHasher()
	s.str(f.Sig().String())
	if f.IsDecl() {
		return s.h
	}
	var buf [32]uint64
	base := buf[:0]
	n := uint64(0)
	for _, b := range f.Blocks {
		base = append(base, n)
		n += uint64(b.Len())
	}
	s.word(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		s.word(uint64(len(b.Instrs())))
		for _, in := range b.Instrs() {
			s.word(uint64(in.Op()))
			s.str(in.Type().String())
			s.word(uint64(in.Pred))
			if in.AllocTy != nil {
				s.str(in.AllocTy.String())
			}
			if in.Cleanup {
				s.word(1)
			}
			s.word(uint64(in.NumOperands()))
			for _, op := range in.Operands() {
				hashOperand(&s, f, base, op)
			}
		}
	}
	return s.h
}
