package ir

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Dead bodies are recycled. The merger builds many bodies it throws
// away — every trial that does not pay — and replaces many more: every
// body a fold forwarder or merge thunk takes the place of
// (BuildForwarder), every body a textual redefinition supersedes
// (AdoptBody). Each goes through releaseBody, which hands its
// instructions and blocks back for the constructors to reuse, operand,
// use and instruction arrays included, instead of leaving them to the
// collector. The pools are sync.Pools, so any goroutine may release and
// build; a pooled object holds no pointer into any body (every array is
// cleared), so the pools pin nothing.

var (
	instrPool pool[Instruction]
	blockPool pool[Block]
)

// pool is a sync.Pool that knows when it is probably empty. A miss
// costs sync.Pool's slow path — every P's shared list, then the victim
// cache — which is dearer than the allocation it stands in for, and most
// constructions (parsing, generating, committed trials) find the pool
// empty. So get skips the pool while its count says it is empty. The
// collector empties sync.Pools without saying so; the first miss after
// that corrects the count.
type pool[T any] struct {
	p sync.Pool
	n atomic.Int64
}

func (p *pool[T]) put(x *T) {
	p.p.Put(x)
	p.n.Add(1)
}

// get returns a pooled object, or nil when there is none.
func (p *pool[T]) get() *T {
	if p.n.Load() <= 0 {
		return nil
	}
	x, _ := p.p.Get().(*T)
	if x == nil {
		p.n.Store(0)
		return nil
	}
	p.n.Add(-1)
	return x
}

// ReleaseCheck, when a test sets it, sees every body about to be taken
// apart (releaseBody), and the released objects are then poisoned
// instead of pooled: a stale pointer into a dead body reads an object
// no constructor will ever hand out again, whose opcode indexes no
// table.
// Set it only while nothing else runs; it is nil in production.
var ReleaseCheck func(f *Function)

// poisonOp is a released instruction's opcode under ReleaseCheck: past
// every per-opcode table, so asking it anything panics.
const poisonOp Opcode = 0xff

// Release takes apart the body of f, a function no module holds, and
// returns its instructions and blocks for reuse (releaseBody); f comes
// out an empty declaration whose arguments have no uses.
//
// The caller must hold the last reference to the body: nothing may read
// one of its blocks or instructions afterwards.
func Release(f *Function) {
	if f.parent != nil {
		panic(fmt.Sprintf("ir: Release of @%s, which a module holds", f.name))
	}
	f.releaseBody()
}

// releaseBody is the one way a body dies: Release's, and that of the
// body BuildForwarder or AdoptBody replaces in a function a module may
// hold. It hands f's instructions and blocks to the pools and leaves f
// an empty declaration whose arguments have no uses. The body must be
// self-contained: every use-tracked operand of its instructions is one
// of f's arguments, blocks or instructions, and every use of those comes
// from an instruction in f's body. releaseBody panics otherwise — it
// would hand out objects something else still points at — and checks on
// every call, which costs one pass over the body.
func (f *Function) releaseBody() {
	checkSelfContained(f)
	if ReleaseCheck != nil {
		ReleaseCheck(f)
	}
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			if ReleaseCheck != nil {
				*in = Instruction{op: poisonOp, name: "<released>", pos: -1}
				continue
			}
			clear(in.operands[:cap(in.operands)])
			clear(in.us[:cap(in.us)])
			*in = Instruction{useList: useList{us: in.us[:0]}, operands: in.operands[:0]}
			instrPool.put(in)
		}
		if ReleaseCheck != nil {
			*b = Block{name: "<released>", index: -1}
			continue
		}
		clear(b.instrs[:cap(b.instrs)])
		clear(b.us[:cap(b.us)])
		*b = Block{useList: useList{us: b.us[:0]}, instrs: b.instrs[:0], index: -1}
		blockPool.put(b)
	}
	clear(f.Blocks)
	f.Blocks = nil
	for _, p := range f.params {
		clear(p.us)
		p.us = p.us[:0]
	}
	f.cfgChanged()
}

// checkSelfContained panics unless f's body is closed under operands
// and uses (see releaseBody).
func checkSelfContained(f *Function) {
	owned := func(v Value) bool {
		switch x := v.(type) {
		case *Instruction:
			return x.parent != nil && x.parent.parent == f
		case *Block:
			return x.parent == f
		case *Argument:
			return x.parent == f
		case *Placeholder:
			return false
		}
		return true // constants, globals and functions track no uses
	}
	usedInside := func(us []Use) bool {
		for _, u := range us {
			if !owned(u.User) {
				return false
			}
		}
		return true
	}
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("ir: Release of @%s: ", f.name) + fmt.Sprintf(format, args...))
	}
	for _, p := range f.params {
		if !usedInside(p.us) {
			fail("argument %%%s is used outside the body", p.name)
		}
	}
	for _, b := range f.Blocks {
		if b.parent != f {
			fail("block %s belongs elsewhere", b.name)
		}
		if !usedInside(b.us) {
			fail("block %s is used outside the body", b.name)
		}
		for _, in := range b.instrs {
			for _, v := range in.operands {
				if !owned(v) {
					fail("a %v in %s has an operand from outside the body", in.op, b.name)
				}
			}
			if !usedInside(in.us) {
				fail("a %v in %s is used outside the body", in.op, b.name)
			}
		}
	}
}

// allocInstr returns a zero instruction with room for n operands,
// reusing a released one when the pool has it.
func allocInstr(n int) *Instruction {
	in := instrPool.get()
	if in == nil {
		in = new(Instruction)
	}
	if cap(in.operands) < n {
		in.operands = make([]Value, 0, n)
	}
	return in
}
