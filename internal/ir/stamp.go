package ir

import "math"

// Edit stamps. Every function keeps an edit counter, and every block the
// counter's value at its last change, so that a pass can tell what
// changed since it last looked without looking. A block changes when
//
//   - an instruction is inserted into it, erased from it or moved in or
//     out of it;
//   - an operand of one of its instructions is set, added or removed
//     (phi incomings included);
//   - the use list of a value it defines changes;
//   - its own use list changes, as a branch target or incoming block;
//   - it becomes the entry block;
//
// and, when an instruction moves between blocks, so do the blocks its
// label operands name (they have a new predecessor or phi user) and the
// blocks of its users (what they read is now defined elsewhere). Three
// narrower stamps record the last change of one kind:
//
//   - the phi stamp, to the block's phis: one inserted, an operand of
//     one set, added or removed, or a value one of them reads moved to
//     another block;
//   - the operand stamp, to what its other instructions compute: one
//     inserted, or an operand or the predicate of one changed;
//   - the use stamp, to what is left using its values: one inserted, or
//     a value it defines lost a use.
//
// The function's CFG stamp is the counter's value at the last change to
// its control flow: a block added, removed or reordered, or a terminator
// inserted, removed or retargeted. Only this package writes
// instructions, blocks and use lists, so no change escapes the counter.
//
// Marks are where clean-up passes keep, per block and pass, the counter
// value at which the pass last found the block clean; ir stores them
// and resets them when they stop meaning anything (a block moving to
// another function), and otherwise leaves them to their owner.

// NumMarks is the number of per-block mark slots.
const NumMarks = 8

// Edits returns f's edit counter. It moves on every change to f's body.
func (f *Function) Edits() uint32 { return f.edits }

// CFGStamp returns the value of f's edit counter at the last change to
// its control-flow graph.
func (f *Function) CFGStamp() uint32 { return f.cfg }

// Mark returns f's function-level mark slot.
func (f *Function) Mark() uint32 { return f.mark }

// SetMark sets f's function-level mark slot.
func (f *Function) SetMark(at uint32) { f.mark = at }

// Stamp returns the value of its function's edit counter at b's last
// change.
func (b *Block) Stamp() uint32 { return b.stamp }

// PhiStamp returns the value of its function's edit counter at the last
// change to b's phis.
func (b *Block) PhiStamp() uint32 { return b.phiStamp }

// OperandStamp returns the value of its function's edit counter at the
// last change to what b's non-phi instructions compute.
func (b *Block) OperandStamp() uint32 { return b.operandStamp }

// UseStamp returns the value of its function's edit counter at the last
// insertion into b or loss of a use by a value b defines.
func (b *Block) UseStamp() uint32 { return b.useStamp }

// Mark returns b's mark slot i.
func (b *Block) Mark(i int) uint32 { return b.marks[i] }

// SetMark sets b's mark slot i.
func (b *Block) SetMark(i int, at uint32) { b.marks[i] = at }

// bump advances f's edit counter and returns its new value. Should the
// counter ever run out, every block starts over as changed at 1 with no
// mark, which no pass can mistake for clean.
func (f *Function) bump() uint32 {
	if f.edits == math.MaxUint32 {
		for _, b := range f.Blocks {
			b.stamp, b.phiStamp, b.operandStamp, b.useStamp, b.marks = 1, 1, 1, 1, [NumMarks]uint32{}
		}
		f.edits, f.cfg, f.mark = 1, 1, 0
	}
	f.edits++
	return f.edits
}

// change is what kind of change a block's narrower stamps record.
type change uint8

const (
	phisChanged change = 1 << iota
	operandsChanged
	usesLost
	anyChange change = 0
)

// touch records a change to b of the given kinds; nil-safe, and a no-op
// for a detached block.
func (b *Block) touch(c change) {
	if b == nil || b.parent == nil {
		return
	}
	at := b.parent.bump()
	b.stamp = at
	if c&phisChanged != 0 {
		b.phiStamp = at
	}
	if c&operandsChanged != 0 {
		b.operandStamp = at
	}
	if c&usesLost != 0 {
		b.useStamp = at
	}
}

// touchUser records a change to what user reads.
func touchUser(user *Instruction) {
	if user.op == OpPhi {
		user.parent.touch(phisChanged)
	} else {
		user.parent.touch(operandsChanged)
	}
}

// cfgChanged records a change to f's control flow.
func (f *Function) cfgChanged() { f.cfg = f.bump() }

// touchUses records a change to v's use list — a lost use if lost — at
// the block defining it, for an instruction, or at the block itself.
func touchUses(v Value, lost bool) {
	switch x := v.(type) {
	case *Instruction:
		if lost {
			x.parent.touch(usesLost)
		} else {
			x.parent.touch(anyChange)
		}
	case *Block:
		x.touch(anyChange)
	}
}

// moved records that in was inserted into (added) or removed from
// block b.
func (in *Instruction) moved(b *Block, added bool) {
	switch {
	case !added:
		b.touch(anyChange)
	case in.op == OpPhi:
		b.touch(phisChanged | usesLost)
	default:
		b.touch(operandsChanged | usesLost)
	}
	if in.op == OpPhi || in.op.IsTerminator() {
		for _, v := range in.operands {
			if l, ok := v.(*Block); ok {
				l.touch(anyChange)
			}
		}
		if in.op != OpPhi && b.parent != nil {
			b.parent.cfgChanged()
		}
	}
	for _, u := range in.us {
		touchUser(u.User)
	}
}

// entryChanged touches f's entry block if it is no longer old.
func (f *Function) entryChanged(old *Block) {
	if e := f.Entry(); e != old {
		e.touch(anyChange)
	}
}
