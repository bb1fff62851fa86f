package ir

import "fmt"

// Instruction is a single IR operation. All instructions share one
// representation: an opcode, a result type, a uniform operand list and a
// small amount of auxiliary data (comparison predicate, landingpad
// cleanup flag; an alloca's element type is its result's pointee). Label
// references (branch targets, invoke successors, phi incoming blocks)
// are ordinary operands of label type.
//
// Operand layout per opcode:
//
//	ret            [] | [v]
//	br             [dest] | [cond, ifTrue, ifFalse]
//	switch         [v, default, c0, d0, c1, d1, ...]
//	invoke         [callee, args..., normal, unwind]
//	resume         [v]
//	unreachable    []
//	binary ops     [a, b]
//	icmp/fcmp      [a, b]            (Pred)
//	alloca         []                (AllocTy, from its type)
//	load           [ptr]
//	store          [val, ptr]
//	getelementptr  [base, indices...]
//	casts          [v]
//	phi            [v0, b0, v1, b1, ...]
//	select         [cond, ifTrue, ifFalse]
//	call           [callee, args...]
//	landingpad     []                (Cleanup)
type Instruction struct {
	useList
	op Opcode
	// pred is the comparison predicate of icmp/fcmp instructions.
	pred CmpPred
	// Cleanup marks landingpad instructions with a cleanup clause.
	Cleanup bool
	// pos is the instruction's position in parent's instruction list;
	// Block maintains it (see Index).
	pos      int32
	name     string
	typ      Type
	operands []Value
	parent   *Block
}

func newInstr(op Opcode, name string, typ Type, operands ...Value) *Instruction {
	in := allocInstr(len(operands))
	in.op, in.name, in.typ = op, name, typ
	for _, v := range operands {
		in.addOperand(v)
	}
	return in
}

// Op returns the instruction's opcode.
func (in *Instruction) Op() Opcode { return in.op }

// Type returns the type of the instruction's result (Void for
// instructions producing no value).
func (in *Instruction) Type() Type { return in.typ }

// Name returns the instruction's result name (may be empty).
func (in *Instruction) Name() string { return in.name }

// SetName renames the instruction's result.
func (in *Instruction) SetName(name string) { in.name = name }

// Parent returns the block containing the instruction, or nil if the
// instruction is detached.
func (in *Instruction) Parent() *Block { return in.parent }

// Index returns the instruction's position in its block (meaningless for
// a detached instruction). Like Block.Index it is maintained by this
// package — only Block's Append, Insert*, Remove, Erase and TakeInstrs
// reorder a block — and checked by VerifyFunction; together the two let
// a pass number a function's values densely without a map.
func (in *Instruction) Index() int { return int(in.pos) }

// NumOperands returns the number of operands.
func (in *Instruction) NumOperands() int { return len(in.operands) }

// Operand returns the i-th operand.
func (in *Instruction) Operand(i int) Value { return in.operands[i] }

// Operands returns the operand list. The returned slice is shared with
// the instruction; callers must not mutate it directly (use SetOperand).
func (in *Instruction) Operands() []Value { return in.operands }

// SetOperand replaces the i-th operand, maintaining use lists.
func (in *Instruction) SetOperand(i int, v Value) {
	old := in.operands[i]
	if old == v {
		return
	}
	if u, ok := old.(usable); ok {
		u.delUse(Use{User: in, Index: i})
		touchUses(old, true)
	}
	in.operands[i] = v
	if u, ok := v.(usable); ok {
		u.addUse(Use{User: in, Index: i})
		touchUses(v, false)
	}
	in.operandChanged(old, v)
}

// operandChanged records that an operand of in changed from old to v
// (either may be nil: an operand added or removed).
func (in *Instruction) operandChanged(old, v Value) {
	b := in.parent
	if b == nil {
		return
	}
	touchUser(in)
	if in.op != OpPhi && in.op.IsTerminator() {
		_, wasLabel := old.(*Block)
		_, isLabel := v.(*Block)
		if wasLabel || isLabel {
			b.parent.cfgChanged()
		}
	}
}

// addOperand appends an operand, maintaining use lists.
func (in *Instruction) addOperand(v Value) {
	if v == nil {
		panic("ir: nil operand")
	}
	in.operands = append(in.operands, v)
	if u, ok := v.(usable); ok {
		u.addUse(Use{User: in, Index: len(in.operands) - 1})
		touchUses(v, false)
	}
	in.operandChanged(nil, v)
}

// removeOperand deletes the i-th operand, shifting later operands down
// and re-indexing their uses.
func (in *Instruction) removeOperand(i int) {
	old := in.operands[i]
	if u, ok := old.(usable); ok {
		u.delUse(Use{User: in, Index: i})
		touchUses(old, true)
	}
	for j := i + 1; j < len(in.operands); j++ {
		if u, ok := in.operands[j].(usable); ok {
			u.delUse(Use{User: in, Index: j})
			u.addUse(Use{User: in, Index: j - 1})
			touchUses(in.operands[j], false)
		}
		in.operands[j-1] = in.operands[j]
	}
	in.operands = in.operands[:len(in.operands)-1]
	in.operandChanged(old, nil)
}

// dropOperands unregisters all operand uses, leaving the instruction
// detached from the value graph. Must be called before discarding an
// instruction.
func (in *Instruction) dropOperands() {
	for i, v := range in.operands {
		if u, ok := v.(usable); ok {
			u.delUse(Use{User: in, Index: i})
			touchUses(v, true)
		}
	}
	in.operands = nil
	in.parent.touch(anyChange)
}

// IsTerminator reports whether the instruction ends its block.
func (in *Instruction) IsTerminator() bool { return in.op.IsTerminator() }

// HasSideEffects reports whether the instruction is observable beyond its
// result value.
func (in *Instruction) HasSideEffects() bool { return in.op.HasSideEffects() }

// Succs returns the successor blocks of a terminator, in operand order
// (duplicates preserved). It returns nil for non-terminators.
func (in *Instruction) Succs() []*Block {
	var out []*Block
	for _, v := range in.operands {
		if b, ok := v.(*Block); ok && in.op != OpPhi {
			out = append(out, b)
		}
	}
	return out
}

// LabelOperandIndices returns the operand indices holding block labels.
func (in *Instruction) LabelOperandIndices() []int {
	var out []int
	for i, v := range in.operands {
		if _, ok := v.(*Block); ok {
			out = append(out, i)
		}
	}
	return out
}

// ReplaceSuccessor rewrites every label operand equal to old with new.
// Phi instructions are unaffected (use SetIncomingBlock).
func (in *Instruction) ReplaceSuccessor(old, new *Block) {
	if in.op == OpPhi {
		panic("ir: ReplaceSuccessor on phi")
	}
	for i, v := range in.operands {
		if v == Value(old) {
			in.SetOperand(i, new)
		}
	}
}

// --- Terminator constructors ---

// NewRet returns a ret instruction; v is nil for void returns.
func NewRet(v Value) *Instruction {
	if v == nil {
		return newInstr(OpRet, "", Void)
	}
	return newInstr(OpRet, "", Void, v)
}

// NewBr returns an unconditional branch to dest.
func NewBr(dest *Block) *Instruction {
	return newInstr(OpBr, "", Void, dest)
}

// NewCondBr returns a conditional branch on cond (i1).
func NewCondBr(cond Value, ifTrue, ifFalse *Block) *Instruction {
	return newInstr(OpBr, "", Void, cond, ifTrue, ifFalse)
}

// SwitchCase is one (constant, destination) arm of a switch.
type SwitchCase struct {
	Val  *ConstInt
	Dest *Block
}

// NewSwitch returns a switch terminator.
func NewSwitch(v Value, def *Block, cases ...SwitchCase) *Instruction {
	in := newInstr(OpSwitch, "", Void, v, def)
	for _, c := range cases {
		in.addOperand(c.Val)
		in.addOperand(c.Dest)
	}
	return in
}

// NewUnreachable returns an unreachable terminator.
func NewUnreachable() *Instruction { return newInstr(OpUnreachable, "", Void) }

// NewInvoke returns an invoke terminator calling callee with args,
// continuing at normal and unwinding to unwind.
func NewInvoke(name string, callee Value, args []Value, normal, unwind *Block) *Instruction {
	ft := calleeFuncType(callee)
	ops := append([]Value{callee}, args...)
	ops = append(ops, normal, unwind)
	return newInstr(OpInvoke, name, ft.Ret, ops...)
}

// NewResume returns a resume terminator re-raising an exception value.
func NewResume(v Value) *Instruction {
	return newInstr(OpResume, "", Void, v)
}

// --- Value-producing constructors ---

// NewBinary returns a binary arithmetic/logic instruction.
func NewBinary(op Opcode, name string, a, b Value) *Instruction {
	if !op.IsBinary() {
		panic(fmt.Sprintf("ir: NewBinary with non-binary opcode %v", op))
	}
	return newInstr(op, name, a.Type(), a, b)
}

// NewICmp returns an integer comparison producing i1.
func NewICmp(name string, pred CmpPred, a, b Value) *Instruction {
	in := newInstr(OpICmp, name, I1, a, b)
	in.pred = pred
	return in
}

// NewFCmp returns a floating-point comparison producing i1.
func NewFCmp(name string, pred CmpPred, a, b Value) *Instruction {
	in := newInstr(OpFCmp, name, I1, a, b)
	in.pred = pred
	return in
}

// NewAlloca returns a stack allocation of elem, producing elem*.
func NewAlloca(name string, elem Type) *Instruction {
	return newInstr(OpAlloca, name, PtrTo(elem))
}

// AllocTy returns the element type an alloca allocates (the pointee of
// its result type), nil for any other instruction.
func (in *Instruction) AllocTy() Type {
	if in.op != OpAlloca {
		return nil
	}
	return in.typ.(*PointerType).Elem
}

// Pred returns the comparison predicate of an icmp/fcmp instruction.
func (in *Instruction) Pred() CmpPred { return in.pred }

// SetPred replaces the comparison predicate of an icmp/fcmp instruction.
func (in *Instruction) SetPred(p CmpPred) {
	if in.pred != p {
		in.pred = p
		in.parent.touch(operandsChanged)
	}
}

// NewLoad returns a load through ptr (of pointer type).
func NewLoad(name string, ptr Value) *Instruction {
	pt, ok := ptr.Type().(*PointerType)
	if !ok {
		panic("ir: load of non-pointer")
	}
	return newInstr(OpLoad, name, pt.Elem, ptr)
}

// NewStore returns a store of val through ptr.
func NewStore(val, ptr Value) *Instruction {
	return newInstr(OpStore, "", Void, val, ptr)
}

// NewGEP returns a getelementptr over base with the given indices.
func NewGEP(name string, base Value, indices ...Value) *Instruction {
	t := gepResultType(base.Type(), indices)
	ops := append([]Value{base}, indices...)
	return newInstr(OpGEP, name, t, ops...)
}

func gepResultType(base Type, indices []Value) Type {
	t, err := GEPType(base, indices)
	if err != nil {
		panic("ir: " + err.Error())
	}
	return t
}

// GEPType returns the pointer type a getelementptr over a base of type
// base with the given indices yields, or why there is none: the base
// must be a pointer, there must be at least one index, and each index
// after the first must step into an array or, as a constant in range,
// into a struct. NewGEP panics where GEPType errs; a parser checks here
// first.
func GEPType(base Type, indices []Value) (Type, error) {
	pt, ok := base.(*PointerType)
	if !ok {
		return nil, fmt.Errorf("gep base is not a pointer")
	}
	if len(indices) == 0 {
		return nil, fmt.Errorf("gep without an index")
	}
	t := pt.Elem
	for _, idx := range indices[1:] {
		switch cur := t.(type) {
		case *ArrayType:
			t = cur.Elem
		case *StructType:
			ci, ok := idx.(*ConstInt)
			if !ok || ci.V < 0 || ci.V >= int64(len(cur.Fields)) {
				return nil, fmt.Errorf("gep struct index must be a valid constant")
			}
			t = cur.Fields[ci.V]
		default:
			return nil, fmt.Errorf("gep cannot index into %v", t)
		}
	}
	return PtrTo(t), nil
}

// NewCast returns a conversion of v to the target type using opcode op.
func NewCast(op Opcode, name string, v Value, to Type) *Instruction {
	if !op.IsCast() {
		panic(fmt.Sprintf("ir: NewCast with non-cast opcode %v", op))
	}
	return newInstr(op, name, to, v)
}

// NewPhi returns an empty phi of type t; use AddIncoming to populate it.
func NewPhi(name string, t Type) *Instruction {
	return newInstr(OpPhi, name, t)
}

// NewPhiSized is NewPhi with operand room for the given number of
// incoming pairs, for callers that know the block's predecessor count.
func NewPhiSized(name string, t Type, incoming int) *Instruction {
	in := allocInstr(2 * incoming)
	in.op, in.name, in.typ = OpPhi, name, t
	return in
}

// NewSelect returns a select between ifTrue and ifFalse on cond.
func NewSelect(name string, cond, ifTrue, ifFalse Value) *Instruction {
	return newInstr(OpSelect, name, ifTrue.Type(), cond, ifTrue, ifFalse)
}

// NewCall returns a call of callee with args.
func NewCall(name string, callee Value, args ...Value) *Instruction {
	ft := calleeFuncType(callee)
	ops := append([]Value{callee}, args...)
	return newInstr(OpCall, name, ft.Ret, ops...)
}

// calleeFuncType extracts the function type of a callable value.
func calleeFuncType(callee Value) *FuncType {
	switch t := callee.Type().(type) {
	case *FuncType:
		return t
	case *PointerType:
		if ft, ok := t.Elem.(*FuncType); ok {
			return ft
		}
	}
	panic(fmt.Sprintf("ir: callee has non-function type %v", callee.Type()))
}

// NewLandingPad returns a landingpad instruction.
func NewLandingPad(name string, cleanup bool) *Instruction {
	in := newInstr(OpLandingPad, name, LandingPadResultType)
	in.Cleanup = cleanup
	return in
}

// --- Phi accessors ---

// NumIncoming returns the number of incoming (value, block) pairs.
func (in *Instruction) NumIncoming() int {
	in.assertOp(OpPhi)
	return len(in.operands) / 2
}

// IncomingValue returns the i-th incoming value.
func (in *Instruction) IncomingValue(i int) Value {
	in.assertOp(OpPhi)
	return in.operands[2*i]
}

// IncomingBlock returns the i-th incoming block.
func (in *Instruction) IncomingBlock(i int) *Block {
	in.assertOp(OpPhi)
	return in.operands[2*i+1].(*Block)
}

// AddIncoming appends an incoming (value, block) pair.
func (in *Instruction) AddIncoming(v Value, b *Block) {
	in.assertOp(OpPhi)
	in.addOperand(v)
	in.addOperand(b)
}

// SetIncomingValue replaces the i-th incoming value.
func (in *Instruction) SetIncomingValue(i int, v Value) {
	in.assertOp(OpPhi)
	in.SetOperand(2*i, v)
}

// SetIncomingBlock replaces the i-th incoming block.
func (in *Instruction) SetIncomingBlock(i int, b *Block) {
	in.assertOp(OpPhi)
	in.SetOperand(2*i+1, b)
}

// RemoveIncoming deletes the i-th incoming pair.
func (in *Instruction) RemoveIncoming(i int) {
	in.assertOp(OpPhi)
	in.removeOperand(2*i + 1)
	in.removeOperand(2 * i)
}

// IncomingFor returns the incoming value for predecessor b.
func (in *Instruction) IncomingFor(b *Block) (Value, bool) {
	in.assertOp(OpPhi)
	for i := 0; i < in.NumIncoming(); i++ {
		if in.IncomingBlock(i) == b {
			return in.IncomingValue(i), true
		}
	}
	return nil, false
}

// RemoveIncomingFor deletes all incoming pairs for predecessor b.
func (in *Instruction) RemoveIncomingFor(b *Block) {
	in.assertOp(OpPhi)
	for i := in.NumIncoming() - 1; i >= 0; i-- {
		if in.IncomingBlock(i) == b {
			in.RemoveIncoming(i)
		}
	}
}

func (in *Instruction) assertOp(op Opcode) {
	if in.op != op {
		panic(fmt.Sprintf("ir: %v accessor on %v instruction", op, in.op))
	}
}

// --- Call/invoke accessors ---

// Callee returns the called value of a call or invoke.
func (in *Instruction) Callee() Value {
	if in.op != OpCall && in.op != OpInvoke {
		panic("ir: Callee on non-call")
	}
	return in.operands[0]
}

// Args returns the argument operands of a call or invoke.
func (in *Instruction) Args() []Value {
	switch in.op {
	case OpCall:
		return in.operands[1:]
	case OpInvoke:
		return in.operands[1 : len(in.operands)-2]
	}
	panic("ir: Args on non-call")
}

// NormalDest returns the normal successor of an invoke.
func (in *Instruction) NormalDest() *Block {
	in.assertOp(OpInvoke)
	return in.operands[len(in.operands)-2].(*Block)
}

// UnwindDest returns the unwind successor of an invoke.
func (in *Instruction) UnwindDest() *Block {
	in.assertOp(OpInvoke)
	return in.operands[len(in.operands)-1].(*Block)
}

// --- Branch accessors ---

// IsCondBr reports whether the instruction is a conditional branch.
func (in *Instruction) IsCondBr() bool {
	return in.op == OpBr && len(in.operands) == 3
}

// SwitchCases returns the (constant, destination) arms of a switch.
func (in *Instruction) SwitchCases() []SwitchCase {
	in.assertOp(OpSwitch)
	var out []SwitchCase
	for i := 2; i+1 < len(in.operands); i += 2 {
		out = append(out, SwitchCase{
			Val:  in.operands[i].(*ConstInt),
			Dest: in.operands[i+1].(*Block),
		})
	}
	return out
}
