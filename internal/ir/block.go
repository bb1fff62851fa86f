package ir

import (
	"fmt"
	"slices"
)

// Block is a basic block: a label followed by a straight-line sequence of
// instructions ending in exactly one terminator. A Block is itself a
// Value of label type so that terminators and phis can hold blocks as
// ordinary operands.
type Block struct {
	useList
	name   string
	parent *Function
	instrs []*Instruction
	// index is the block's position in parent.Blocks, -1 while detached.
	// Function maintains it (see Index).
	index int32
	// The stamps and marks: see stamp.go.
	stamp, phiStamp, operandStamp, useStamp uint32
	marks                                   [NumMarks]uint32
}

// NewBlock returns a detached block with the given name.
func NewBlock(name string) *Block {
	b := blockPool.get()
	if b == nil {
		return &Block{name: name, index: -1}
	}
	b.name = name
	return b
}

// Type returns the label type.
func (b *Block) Type() Type { return Label }

// Name returns the block's label name.
func (b *Block) Name() string { return b.name }

// SetName renames the block.
func (b *Block) SetName(name string) { b.name = name }

// Parent returns the function containing the block, or nil.
func (b *Block) Parent() *Function { return b.parent }

// Index returns the block's position in its function's Blocks, or -1
// for a detached block. The invariant f.Blocks[i].Index() == i is owned
// by this package: Blocks is only ever written by AddBlock, RemoveBlock,
// EraseBlock(s), SetBlockOrder, moveBody (AdoptBody, DetachBody,
// CloneFunctionInto) and releaseBody, and
// VerifyFunction checks it. Analyses key their per-block tables by it.
func (b *Block) Index() int { return int(b.index) }

// Instrs returns the block's instructions in order. The slice is shared;
// use Append/InsertBefore/Remove to mutate.
func (b *Block) Instrs() []*Instruction { return b.instrs }

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.instrs) }

// First returns the first instruction, or nil.
func (b *Block) First() *Instruction {
	if len(b.instrs) == 0 {
		return nil
	}
	return b.instrs[0]
}

// Term returns the block's terminator, or nil if the block is not yet
// terminated.
func (b *Block) Term() *Instruction {
	if n := len(b.instrs); n > 0 && b.instrs[n-1].IsTerminator() {
		return b.instrs[n-1]
	}
	return nil
}

// Phis returns the block's leading phi instructions.
func (b *Block) Phis() []*Instruction {
	n := 0
	for n < len(b.instrs) && b.instrs[n].op == OpPhi {
		n++
	}
	return b.instrs[:n]
}

// FirstNonPhi returns the first non-phi instruction, or nil.
func (b *Block) FirstNonPhi() *Instruction {
	for _, in := range b.instrs {
		if in.op != OpPhi {
			return in
		}
	}
	return nil
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instruction) *Instruction {
	if in.parent != nil {
		panic("ir: appending attached instruction")
	}
	in.parent = b
	in.pos = int32(len(b.instrs))
	b.instrs = append(b.instrs, in)
	in.moved(b, true)
	return in
}

// InsertBefore inserts in immediately before pos, which must belong to b.
func (b *Block) InsertBefore(in, pos *Instruction) *Instruction {
	if in.parent != nil {
		panic("ir: inserting attached instruction")
	}
	i := b.indexOf(pos)
	in.parent = b
	b.instrs = append(b.instrs, nil)
	copy(b.instrs[i+1:], b.instrs[i:])
	b.instrs[i] = in
	b.renumber(i)
	in.moved(b, true)
	return in
}

// InsertAfter inserts in immediately after pos, which must belong to b.
func (b *Block) InsertAfter(in, pos *Instruction) *Instruction {
	i := b.indexOf(pos)
	if i == len(b.instrs)-1 {
		return b.Append(in)
	}
	return b.InsertBefore(in, b.instrs[i+1])
}

// InsertAtFront inserts in as the first instruction of the block.
func (b *Block) InsertAtFront(in *Instruction) *Instruction {
	if len(b.instrs) == 0 {
		return b.Append(in)
	}
	return b.InsertBefore(in, b.instrs[0])
}

// InsertAllAtFront inserts the detached instructions ins, in order,
// ahead of everything already in the block: one shift and one renumbering
// however many there are.
func (b *Block) InsertAllAtFront(ins []*Instruction) {
	for _, in := range ins {
		if in.parent != nil {
			panic("ir: inserting attached instruction")
		}
		in.parent = b
	}
	b.instrs = slices.Insert(b.instrs, 0, ins...)
	b.renumber(0)
	for _, in := range ins {
		in.moved(b, true)
	}
}

// TakeInstrs moves every instruction of src, in order, to the end of b,
// leaving src empty. Operands and uses are untouched.
func (b *Block) TakeInstrs(src *Block) {
	for _, in := range src.instrs {
		in.parent = nil
		b.Append(in)
		in.moved(src, false)
	}
	src.instrs = nil
}

// Remove detaches in from the block without touching its operands, so it
// can be re-inserted elsewhere.
func (b *Block) Remove(in *Instruction) {
	i := b.indexOf(in)
	copy(b.instrs[i:], b.instrs[i+1:])
	b.instrs = b.instrs[:len(b.instrs)-1]
	in.parent = nil
	b.renumber(i)
	in.moved(b, false)
}

// Erase removes in from the block and drops its operand uses. The
// instruction must itself be unused.
func (b *Block) Erase(in *Instruction) {
	if HasUses(in) {
		panic(fmt.Sprintf("ir: erasing %v instruction that still has uses", in.op))
	}
	b.Remove(in)
	in.dropOperands()
}

func (b *Block) indexOf(in *Instruction) int {
	if in.parent != b {
		panic("ir: instruction not in block")
	}
	return int(in.pos)
}

// renumber restores the position invariant from instruction i on.
func (b *Block) renumber(i int) {
	for ; i < len(b.instrs); i++ {
		b.instrs[i].pos = int32(i)
	}
}

// Preds returns the distinct predecessor blocks of b, derived from the
// use list (terminator label operands only, not phi references).
func (b *Block) Preds() []*Block {
	var out []*Block
	for _, u := range b.uses() {
		if u.User.op == OpPhi || !u.User.IsTerminator() {
			continue
		}
		p := u.User.parent
		if p == nil {
			continue
		}
		// A block has a handful of predecessors and a terminator names it
		// at most a few times, so a scan of what is already out beats a set.
		dup := false
		for _, q := range out {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

// UniquePred returns b's only predecessor, or nil when it has none or
// several: len(b.Preds()) == 1 without building the slice.
func (b *Block) UniquePred() *Block {
	var pred *Block
	for _, u := range b.uses() {
		if u.User.op == OpPhi || !u.User.IsTerminator() {
			continue
		}
		switch p := u.User.parent; {
		case p == nil || p == pred:
		case pred == nil:
			pred = p
		default:
			return nil
		}
	}
	return pred
}

// HasPred reports whether p is a predecessor of b.
func (b *Block) HasPred(p *Block) bool {
	for _, u := range b.uses() {
		if u.User.IsTerminator() && u.User.op != OpPhi && u.User.parent == p {
			return true
		}
	}
	return false
}

// Succs returns the successor blocks of b in terminator operand order
// (duplicates preserved). Returns nil for unterminated blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Succs()
}

// IsEntry reports whether b is its function's entry block.
func (b *Block) IsEntry() bool {
	return b.parent != nil && len(b.parent.Blocks) > 0 && b.parent.Blocks[0] == b
}
