package ir

import "fmt"

// Function is an IR function: a signature plus (for definitions) a list
// of basic blocks, the first of which is the entry block. A Function is a
// Value of pointer-to-function type so it can appear as a call target.
type Function struct {
	name string
	sig  *FuncType
	// typ is the function's pointer type, built once: Type is asked for
	// every call operand a pass reads.
	typ    *PointerType
	params []*Argument
	// Blocks is the block list; Blocks[0] is the entry. Empty for
	// declarations.
	Blocks []*Block
	parent *Module
	// edits, cfg and mark: see stamp.go.
	edits, cfg, mark uint32
}

// NewFunction returns a detached function with parameters named after
// paramNames (padded with generated names when too short).
func NewFunction(name string, sig *FuncType, paramNames ...string) *Function {
	f := newFunction(name, sig, PtrTo(sig))
	for i, p := range f.params {
		if i < len(paramNames) && paramNames[i] != "" {
			p.name = paramNames[i]
		} else {
			p.name = fmt.Sprintf("arg%d", i)
		}
	}
	return f
}

// newFunction returns a detached function of pointer type typ with
// unnamed parameters, all of them in one array.
func newFunction(name string, sig *FuncType, typ *PointerType) *Function {
	f := &Function{name: name, sig: sig, typ: typ}
	args := make([]Argument, len(sig.Params))
	f.params = make([]*Argument, len(sig.Params))
	for i, pt := range sig.Params {
		args[i] = Argument{typ: pt, parent: f, index: i}
		f.params[i] = &args[i]
	}
	return f
}

// Type returns the pointer-to-function type of the function value.
func (f *Function) Type() Type { return f.typ }

// Sig returns the function's signature.
func (f *Function) Sig() *FuncType { return f.sig }

// Name returns the function's name.
func (f *Function) Name() string { return f.name }

// SetName renames the function. When attached to a module, the module's
// lookup index is updated.
func (f *Function) SetName(name string) {
	if f.parent != nil {
		delete(f.parent.funcByName, f.name)
		f.parent.funcByName[name] = f
	}
	f.name = name
}

// Parent returns the module containing the function, or nil.
func (f *Function) Parent() *Module { return f.parent }

// Params returns the function's formal parameters.
func (f *Function) Params() []*Argument { return f.params }

// Param returns the i-th formal parameter.
func (f *Function) Param(i int) *Argument { return f.params[i] }

// IsDecl reports whether the function is a declaration (no body).
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block, or nil for declarations.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// AddBlock appends a block to the function.
func (f *Function) AddBlock(b *Block) *Block {
	if b.parent != nil {
		panic("ir: adding attached block")
	}
	b.parent = f
	b.index = int32(len(f.Blocks))
	f.Blocks = append(f.Blocks, b)
	// Marks taken in another function mean nothing here.
	b.marks = [NumMarks]uint32{}
	b.touch(phisChanged | operandsChanged | usesLost)
	f.cfgChanged()
	return b
}

// NewBlockIn creates a new block with the given name and appends it.
func (f *Function) NewBlockIn(name string) *Block {
	return f.AddBlock(NewBlock(name))
}

// RemoveBlock detaches b from the function. The caller is responsible
// for fixing dangling references.
func (f *Function) RemoveBlock(b *Block) {
	if b.parent != f {
		panic("ir: block not in function")
	}
	i := b.index
	copy(f.Blocks[i:], f.Blocks[i+1:])
	f.Blocks = f.Blocks[:len(f.Blocks)-1]
	for _, x := range f.Blocks[i:] {
		x.index--
	}
	b.parent, b.index = nil, -1
	f.cfgChanged()
	f.entryChanged(b)
}

// SetBlockOrder relays out the function: order must be a permutation of
// f.Blocks, and order[0] becomes the entry.
func (f *Function) SetBlockOrder(order []*Block) {
	if len(order) != len(f.Blocks) {
		panic("ir: SetBlockOrder is not a permutation of the function's blocks")
	}
	for _, b := range order {
		if b.parent != f {
			panic("ir: block not in function")
		}
		b.index = -1
	}
	for i, b := range order {
		if b.index != -1 {
			panic("ir: SetBlockOrder lists a block twice")
		}
		b.index = int32(i)
		f.Blocks[i] = b
	}
	f.cfgChanged()
	f.entryChanged(nil)
}

// EraseBlock removes b and erases all its instructions (dropping operand
// uses). References to b or its instructions from other blocks must have
// been removed already.
func (f *Function) EraseBlock(b *Block) {
	// Drop operands first so intra-block uses do not trip Erase.
	for _, in := range b.instrs {
		in.dropOperands()
	}
	for _, in := range b.instrs {
		if HasUses(in) {
			panic(fmt.Sprintf("ir: erased block %s defines a live value (%v)", b.name, in.op))
		}
		in.parent = nil
	}
	b.instrs = nil
	if HasUses(b) {
		panic(fmt.Sprintf("ir: erased block %s still referenced", b.name))
	}
	f.RemoveBlock(b)
}

// EraseBlocks removes a group of blocks at once, dropping all operand
// uses first so mutual references among the group do not matter. Values
// defined in the group must not be used outside it.
func (f *Function) EraseBlocks(blocks []*Block) {
	for _, b := range blocks {
		for _, in := range b.instrs {
			in.dropOperands()
		}
	}
	for _, b := range blocks {
		for _, in := range b.instrs {
			if HasUses(in) {
				panic(fmt.Sprintf("ir: erased block %s defines a live value (%v)", b.name, in.op))
			}
			in.parent = nil
		}
		b.instrs = nil
		if HasUses(b) {
			panic(fmt.Sprintf("ir: erased block %s still referenced", b.name))
		}
		if b.parent != f {
			panic("ir: block not in function")
		}
		b.parent, b.index = nil, -1
	}
	// One compaction for the whole group.
	entry := f.Entry()
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if b.parent == f {
			b.index = int32(len(kept))
			kept = append(kept, b)
		}
	}
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
	f.cfgChanged()
	f.entryChanged(entry)
}

// NumInstrs returns the total number of instructions in the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.instrs)
	}
	return n
}

// Instrs calls fn for every instruction in block order; if fn returns
// false the walk stops.
func (f *Function) Instrs(fn func(*Instruction) bool) {
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			if !fn(in) {
				return
			}
		}
	}
}

// AdoptBody moves donor's body into f, preserving f's identity: every
// call instruction holding f as its callee keeps pointing at the same
// object (functions do not track uses, so a swap of the Function value
// itself could never be repaired), while f's blocks, instructions and
// parameter uses become donor's. The signatures must be equal; donor
// must be a detached definition and comes out an empty declaration.
// f's old body is released (releaseBody), so nothing may point into it.
// The textual-IR splicer (irtext.ParseInto) is the intended caller: it
// parses a redefined function's new body into a staging donor and
// grafts it here only once the whole fragment parsed cleanly.
func (f *Function) AdoptBody(donor *Function) error {
	if !TypesEqual(f.sig, donor.sig) {
		return fmt.Errorf("ir: AdoptBody signature mismatch: %v vs %v", f.sig, donor.sig)
	}
	if donor.parent != nil {
		return fmt.Errorf("ir: AdoptBody donor @%s is attached to a module", donor.name)
	}
	if donor.IsDecl() {
		return fmt.Errorf("ir: AdoptBody donor @%s has no body", donor.name)
	}
	f.releaseBody()
	moveBody(f, donor)
	return nil
}

// DetachBody moves f's body into a fresh detached function of f's name
// and signature and returns it, leaving f an empty declaration — the
// reverse of AdoptBody, for a caller about to replace f's body (with a
// thunk, say) that wants to keep the old one. Nothing is copied: the
// blocks and instructions are f's own, re-parented, so anything that
// still points at one of them now points into the returned function.
func (f *Function) DetachBody() *Function {
	names := make([]string, len(f.params))
	for i, p := range f.params {
		names[i] = p.Name()
	}
	body := NewFunction(f.name, f.sig, names...)
	moveBody(body, f)
	return body
}

// moveBody is the one body move: src's blocks are re-parented to dst,
// which must share src's signature and have no body, and every use of a
// src parameter is re-pointed at dst's (which takes its name). Operands
// and every other use list stay as they are; src comes out an empty
// declaration.
func moveBody(dst, src *Function) {
	for i, p := range src.params {
		ReplaceAllUsesWith(p, dst.params[i])
		dst.params[i].SetName(p.Name())
	}
	dst.Blocks, src.Blocks = src.Blocks, nil
	for _, b := range dst.Blocks {
		b.parent = dst
	}
	// The blocks keep their stamps and marks: dst's counter continues
	// from src's, so they still tell the truth.
	dst.edits = max(dst.edits, src.edits)
	dst.cfgChanged()
	src.cfgChanged()
}

// Module is a translation unit: a set of functions and global variables.
type Module struct {
	Funcs      []*Function
	Globals    []*GlobalVar
	funcByName map[string]*Function
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{funcByName: map[string]*Function{}}
}

// AddFunc appends a function to the module.
func (m *Module) AddFunc(f *Function) *Function {
	if f.parent != nil {
		panic("ir: adding attached function")
	}
	f.parent = m
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.name] = f
	return f
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Function { return m.funcByName[name] }

// RemoveFunc detaches f from the module. The scan runs from the back:
// the function removed is most often one just added (a discarded
// trial's merged body).
func (m *Module) RemoveFunc(f *Function) {
	for i := len(m.Funcs) - 1; i >= 0; i-- {
		if m.Funcs[i] == f {
			copy(m.Funcs[i:], m.Funcs[i+1:])
			m.Funcs = m.Funcs[:len(m.Funcs)-1]
			delete(m.funcByName, f.name)
			f.parent = nil
			return
		}
	}
	panic("ir: function not in module")
}

// AddGlobal appends a global variable to the module.
func (m *Module) AddGlobal(g *GlobalVar) *GlobalVar {
	m.Globals = append(m.Globals, g)
	return g
}

// GlobalByName returns the global with the given name, or nil.
func (m *Module) GlobalByName(name string) *GlobalVar {
	for _, g := range m.Globals {
		if g.name == name {
			return g
		}
	}
	return nil
}

// NumInstrs returns the total instruction count over all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Defined returns the functions that have bodies, in module order.
func (m *Module) Defined() []*Function {
	var out []*Function
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			out = append(out, f)
		}
	}
	return out
}
