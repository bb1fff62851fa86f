package ir

import (
	"fmt"
)

// VerifyError describes a verification failure.
type VerifyError struct {
	Func  string
	Block string
	Msg   string
}

// Error implements the error interface.
func (e *VerifyError) Error() string {
	if e.Block != "" {
		return fmt.Sprintf("ir verify: @%s, block %%%s: %s", e.Func, e.Block, e.Msg)
	}
	return fmt.Sprintf("ir verify: @%s: %s", e.Func, e.Msg)
}

// VerifyModule checks every defined function in m (see VerifyFunction)
// and that no function shares a global's name, and returns the first
// error found.
func VerifyModule(m *Module) error {
	for _, g := range m.Globals {
		if m.FuncByName(g.name) != nil {
			return &VerifyError{Func: g.name, Msg: "function and global variable share the name"}
		}
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := VerifyFunction(f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunction checks the structural and SSA well-formedness of f:
//
//   - every block's Index is its position in f.Blocks, and every
//     instruction's Index its position in its block;
//   - every block is non-empty and ends in exactly one terminator, with no
//     terminator in the middle;
//   - phis are grouped at the top of their block and their incoming edges
//     exactly cover the block's predecessors;
//   - the entry block has no predecessors and no phis;
//   - instruction operands defined in the function belong to the function;
//   - every use of an instruction value is dominated by its definition
//     (phi uses counted at the end of the incoming block);
//   - landingpads appear exactly as the first non-phi instruction of the
//     unwind destinations of invokes, and nowhere else;
//   - operand/result types are consistent for the common instruction
//     forms.
func VerifyFunction(f *Function) error {
	v := &verifier{f: f}
	return v.run()
}

type verifier struct {
	f      *Function
	blocks map[*Block]bool
	defs   map[*Instruction]*Block
	idom   map[*Block]*Block
	index  map[*Block]int // reverse-postorder index of reachable blocks
	pos    map[*Instruction]int
}

func (v *verifier) errf(b *Block, format string, args ...any) error {
	bn := ""
	if b != nil {
		bn = b.name
	}
	return &VerifyError{Func: v.f.name, Block: bn, Msg: fmt.Sprintf(format, args...)}
}

func (v *verifier) run() error {
	f := v.f
	if len(f.Blocks) == 0 {
		return nil
	}
	v.blocks = map[*Block]bool{}
	v.defs = map[*Instruction]*Block{}
	v.pos = map[*Instruction]int{}
	for i, b := range f.Blocks {
		if b.parent != f {
			return v.errf(b, "block parent link broken")
		}
		if b.Index() != i {
			return v.errf(b, "block at position %d has index %d", i, b.index)
		}
		v.blocks[b] = true
	}
	for _, b := range f.Blocks {
		if err := v.checkBlockShape(b); err != nil {
			return err
		}
		for i, in := range b.instrs {
			if in.parent != b {
				return v.errf(b, "instruction parent link broken (%v)", in.op)
			}
			if int(in.pos) != i {
				return v.errf(b, "%v at position %d has index %d", in.op, i, in.pos)
			}
			v.defs[in] = b
			v.pos[in] = i
		}
	}
	if len(f.Entry().Preds()) != 0 {
		return v.errf(f.Entry(), "entry block has predecessors")
	}
	if len(f.Entry().Phis()) != 0 {
		return v.errf(f.Entry(), "entry block has phis")
	}
	v.computeDominators()
	for _, b := range f.Blocks {
		if err := v.checkPhis(b); err != nil {
			return err
		}
		if err := v.checkLandingPads(b); err != nil {
			return err
		}
		for _, in := range b.instrs {
			if err := v.checkOperands(b, in); err != nil {
				return err
			}
			if err := v.checkTypes(b, in); err != nil {
				return err
			}
			if err := v.checkDominance(b, in); err != nil {
				return err
			}
		}
	}
	return v.checkUseLists()
}

func (v *verifier) checkBlockShape(b *Block) error {
	if len(b.instrs) == 0 {
		return v.errf(b, "empty block")
	}
	for i, in := range b.instrs {
		if in.IsTerminator() != (i == len(b.instrs)-1) {
			if in.IsTerminator() {
				return v.errf(b, "terminator %v in the middle of the block", in.op)
			}
			return v.errf(b, "block does not end in a terminator (%v)", in.op)
		}
	}
	seenNonPhi := false
	for _, in := range b.instrs {
		if in.op == OpPhi {
			if seenNonPhi {
				return v.errf(b, "phi after non-phi instruction")
			}
		} else {
			seenNonPhi = true
		}
	}
	return nil
}

func (v *verifier) checkPhis(b *Block) error {
	preds := b.Preds()
	for _, phi := range b.Phis() {
		if phi.NumIncoming() != len(preds) {
			return v.errf(b, "phi has %d incoming edges, block has %d predecessors",
				phi.NumIncoming(), len(preds))
		}
		seen := map[*Block]bool{}
		for i := 0; i < phi.NumIncoming(); i++ {
			ib := phi.IncomingBlock(i)
			if seen[ib] {
				return v.errf(b, "phi lists predecessor %%%s twice", ib.name)
			}
			seen[ib] = true
			if !b.HasPred(ib) {
				return v.errf(b, "phi incoming block %%%s is not a predecessor", ib.name)
			}
			if !TypesEqual(phi.IncomingValue(i).Type(), phi.typ) {
				return v.errf(b, "phi incoming value %d has type %v, want %v",
					i, phi.IncomingValue(i).Type(), phi.typ)
			}
		}
	}
	return nil
}

func (v *verifier) checkLandingPads(b *Block) error {
	for i, in := range b.instrs {
		if in.op != OpLandingPad {
			continue
		}
		if in != b.FirstNonPhi() || len(b.Phis()) != i {
			return v.errf(b, "landingpad is not the first non-phi instruction")
		}
		preds := b.Preds()
		if len(preds) == 0 {
			return v.errf(b, "landingpad block has no invoke predecessors")
		}
		for _, p := range preds {
			t := p.Term()
			if t.op != OpInvoke || t.UnwindDest() != b {
				return v.errf(b, "landingpad block predecessor %%%s is not an unwinding invoke", p.name)
			}
		}
	}
	t := b.Term()
	if t != nil && t.op == OpInvoke {
		ud := t.UnwindDest()
		first := ud.FirstNonPhi()
		if first == nil || first.op != OpLandingPad {
			return v.errf(b, "invoke unwind destination %%%s does not start with landingpad", ud.name)
		}
	}
	return nil
}

func (v *verifier) checkOperands(b *Block, in *Instruction) error {
	for i, op := range in.operands {
		switch op := op.(type) {
		case *Instruction:
			if v.defs[op] == nil {
				return v.errf(b, "%v operand %d is an instruction from outside the function", in.op, i)
			}
		case *Argument:
			if op.parent != v.f {
				return v.errf(b, "%v operand %d is a foreign argument %%%s", in.op, i, op.Name())
			}
		case *Block:
			if !v.blocks[op] {
				return v.errf(b, "%v operand %d references a foreign block", in.op, i)
			}
			if in.op != OpPhi && !in.IsTerminator() {
				return v.errf(b, "%v has a label operand but is not a terminator or phi", in.op)
			}
		case nil:
			return v.errf(b, "%v operand %d is nil", in.op, i)
		}
	}
	return nil
}

func (v *verifier) checkTypes(b *Block, in *Instruction) error {
	ops := in.operands
	switch {
	case in.op == OpRet:
		want := v.f.sig.Ret
		if len(ops) == 0 {
			if !IsVoid(want) {
				return v.errf(b, "ret void in function returning %v", want)
			}
		} else if !TypesEqual(ops[0].Type(), want) {
			return v.errf(b, "ret operand type %v, want %v", ops[0].Type(), want)
		}
	case in.op == OpBr && len(ops) == 3:
		if !TypesEqual(ops[0].Type(), I1) {
			return v.errf(b, "conditional branch on non-i1 value")
		}
	case in.op.IsBinary():
		if !TypesEqual(ops[0].Type(), ops[1].Type()) || !TypesEqual(ops[0].Type(), in.typ) {
			return v.errf(b, "%v operand/result type mismatch", in.op)
		}
	case in.op == OpICmp || in.op == OpFCmp:
		if !TypesEqual(ops[0].Type(), ops[1].Type()) {
			return v.errf(b, "%v operand type mismatch", in.op)
		}
	case in.op == OpLoad:
		pt, ok := ops[0].Type().(*PointerType)
		if !ok || !TypesEqual(pt.Elem, in.typ) {
			return v.errf(b, "load type mismatch")
		}
	case in.op == OpStore:
		pt, ok := ops[1].Type().(*PointerType)
		if !ok || !TypesEqual(pt.Elem, ops[0].Type()) {
			return v.errf(b, "store type mismatch")
		}
	case in.op == OpSelect:
		if !TypesEqual(ops[0].Type(), I1) || !TypesEqual(ops[1].Type(), ops[2].Type()) ||
			!TypesEqual(ops[1].Type(), in.typ) {
			return v.errf(b, "select type mismatch")
		}
	case in.op == OpCall || in.op == OpInvoke:
		ft := calleeFuncType(in.Callee())
		args := in.Args()
		if !ft.Variadic && len(args) != len(ft.Params) {
			return v.errf(b, "%v passes %d args, callee takes %d", in.op, len(args), len(ft.Params))
		}
		if ft.Variadic && len(args) < len(ft.Params) {
			return v.errf(b, "%v passes too few args to variadic callee", in.op)
		}
		for i, a := range args {
			if i < len(ft.Params) && !TypesEqual(a.Type(), ft.Params[i]) {
				return v.errf(b, "%v arg %d has type %v, want %v", in.op, i, a.Type(), ft.Params[i])
			}
		}
		if !TypesEqual(in.typ, ft.Ret) {
			return v.errf(b, "%v result type %v, callee returns %v", in.op, in.typ, ft.Ret)
		}
	}
	return nil
}

// computeDominators builds an immediate-dominator map over the reachable
// blocks using the iterative algorithm of Cooper, Harvey and Kennedy.
func (v *verifier) computeDominators() {
	f := v.f
	// Reverse postorder over reachable blocks.
	var order []*Block
	seen := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	v.index = map[*Block]int{}
	for i, b := range order {
		v.index[b] = i
	}
	idom := map[*Block]*Block{order[0]: order[0]}
	intersect := func(a, b *Block) *Block {
		for a != b {
			for v.index[a] > v.index[b] {
				a = idom[a]
			}
			for v.index[b] > v.index[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			var nd *Block
			for _, p := range b.Preds() {
				if _, ok := idom[p]; !ok {
					continue
				}
				if nd == nil {
					nd = p
				} else {
					nd = intersect(nd, p)
				}
			}
			if nd != nil && idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}
	v.idom = idom
}

// dominates reports whether block a dominates block b (both reachable).
func (v *verifier) dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := v.idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

func (v *verifier) checkDominance(b *Block, in *Instruction) error {
	if _, reachable := v.index[b]; !reachable {
		return nil // uses in unreachable code are unconstrained
	}
	for i, op := range in.operands {
		def, ok := op.(*Instruction)
		if !ok {
			continue
		}
		db := v.defs[def]
		if _, reachable := v.index[db]; !reachable {
			return v.errf(b, "%v uses value defined in unreachable block %%%s", in.op, db.name)
		}
		if in.op == OpPhi {
			// A phi use must be dominated at the end of the incoming block.
			ib := in.IncomingBlock(i / 2)
			if !v.dominates(db, ib) {
				return v.errf(b, "phi incoming value from %%%s not dominated by its definition in %%%s",
					ib.name, db.name)
			}
			continue
		}
		if db == b {
			if v.pos[def] >= v.pos[in] {
				return v.errf(b, "%v uses %v defined later in the same block", in.op, def.op)
			}
			continue
		}
		// Invoke results are only defined on the normal edge; treat uses in
		// the unwind destination as errors.
		if def.op == OpInvoke && in.parent == def.UnwindDest() {
			return v.errf(b, "use of invoke result on unwind path")
		}
		if !v.dominates(db, b) {
			return v.errf(b, "%v use of %v (defined in %%%s) is not dominated by its definition",
				in.op, def.op, db.name)
		}
	}
	return nil
}

// checkUseLists validates the operand/use-list cross-linking.
func (v *verifier) checkUseLists() error {
	for _, b := range v.f.Blocks {
		for _, in := range b.instrs {
			for i, op := range in.operands {
				u, ok := op.(usable)
				if !ok {
					continue
				}
				found := false
				for _, use := range u.uses() {
					if use.User == in && use.Index == i {
						found = true
						break
					}
				}
				if !found {
					return v.errf(b, "%v operand %d missing from use list", in.op, i)
				}
			}
		}
	}
	return nil
}
