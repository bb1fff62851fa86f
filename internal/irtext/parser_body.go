package irtext

import (
	"fmt"
	"strconv"

	"repro/internal/ir"
)

// parseBody parses a function body (after '{') into fn.
func (p *parser) parseBody(fn *ir.Function) error {
	p.fn = fn
	p.locals = map[string]ir.Value{}
	p.phs = map[string]*ir.Placeholder{}
	p.blocks = map[string]*ir.Block{}
	for _, arg := range fn.Params() {
		p.locals[arg.Name()] = arg
	}
	var cur *ir.Block
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "}":
			p.next()
			return p.finishBody()
		case t.kind == tokEOF:
			return p.errf("unexpected end of input in @%s", fn.Name())
		case t.kind == tokIdent && p.peek2().kind == tokPunct && p.peek2().text == ":":
			name := p.next().text
			p.next() // ':'
			b := p.blockRef(name)
			if b.Parent() != nil {
				return p.errf("duplicate block label %%%s", name)
			}
			fn.AddBlock(b)
			cur = b
		default:
			if cur == nil {
				return p.errf("instruction before first block label")
			}
			in, err := p.parseInstr()
			if err != nil {
				return err
			}
			cur.Append(in)
		}
	}
}

func (p *parser) finishBody() error {
	if len(p.fn.Blocks) == 0 {
		// A definition needs a block; an empty one would read back as a
		// declaration, and a splice could not graft it.
		return p.errf("@%s is defined without a block", p.fn.Name())
	}
	for name, b := range p.blocks {
		if b.Parent() == nil {
			return p.errf("undefined block label %%%s in @%s", name, p.fn.Name())
		}
	}
	for name := range p.phs {
		return p.errf("undefined local %%%s in @%s", name, p.fn.Name())
	}
	return nil
}

// blockRef returns the block named name, creating a detached one on first
// mention.
func (p *parser) blockRef(name string) *ir.Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := ir.NewBlock(name)
	p.blocks[name] = b
	return b
}

// localRef returns the local value named name with the given expected
// type, creating a placeholder for forward references.
func (p *parser) localRef(name string, ty ir.Type) (ir.Value, error) {
	if v, ok := p.locals[name]; ok {
		if !ir.TypesEqual(v.Type(), ty) {
			return nil, p.errf("%%%s used with type %v but defined with %v", name, ty, v.Type())
		}
		return v, nil
	}
	if ph, ok := p.phs[name]; ok {
		if !ir.TypesEqual(ph.Type(), ty) {
			return nil, p.errf("%%%s used with inconsistent types %v and %v", name, ty, ph.Type())
		}
		return ph, nil
	}
	ph := ir.NewPlaceholder(ty, name)
	p.phs[name] = ph
	return ph, nil
}

// defineLocal records the definition of %name, resolving any placeholder.
func (p *parser) defineLocal(name string, v ir.Value) error {
	if _, dup := p.locals[name]; dup {
		return p.errf("duplicate definition of %%%s", name)
	}
	if ph, ok := p.phs[name]; ok {
		if !ir.TypesEqual(ph.Type(), v.Type()) {
			return p.errf("%%%s defined with type %v but used with %v", name, v.Type(), ph.Type())
		}
		ir.ReplaceAllUsesWith(ph, v)
		delete(p.phs, name)
	}
	p.locals[name] = v
	return nil
}

// parseValueOf parses a value reference of the given type.
func (p *parser) parseValueOf(ty ir.Type) (ir.Value, error) {
	switch t := p.next(); {
	case t.kind == tokLocal:
		return p.localRef(t.text, ty)
	case t.kind == tokGlobal:
		var v ir.Value
		if f := p.m.FuncByName(t.text); f != nil {
			v = f
		} else if g := p.m.GlobalByName(t.text); g != nil {
			v = g
		} else {
			return nil, &parseError{line: t.line, msg: fmt.Sprintf("undefined global @%s", t.text)}
		}
		if !ir.TypesEqual(v.Type(), ty) {
			return nil, &parseError{line: t.line, msg: fmt.Sprintf("@%s used with type %v but has %v", t.text, ty, v.Type())}
		}
		return v, nil
	case t.kind == tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, &parseError{line: t.line, msg: "integer constant out of range"}
		}
		switch ty := ty.(type) {
		case *ir.IntType:
			return ir.NewConstInt(ty, v), nil
		case *ir.FloatType:
			return ir.NewConstFloat(ty, float64(v)), nil
		}
		return nil, &parseError{line: t.line, msg: fmt.Sprintf("integer constant of type %v", ty)}
	case t.kind == tokFloat:
		ft, ok := ty.(*ir.FloatType)
		if !ok {
			return nil, &parseError{line: t.line, msg: fmt.Sprintf("float constant of type %v", ty)}
		}
		v, _ := strconv.ParseFloat(t.text, 64)
		return ir.NewConstFloat(ft, v), nil
	case t.kind == tokIdent && t.text == "undef":
		return ir.NewUndef(ty), nil
	case t.kind == tokIdent && t.text == "null":
		pt, ok := ty.(*ir.PointerType)
		if !ok {
			return nil, &parseError{line: t.line, msg: "null constant of non-pointer type"}
		}
		return ir.NewConstNull(pt), nil
	case t.kind == tokIdent && t.text == "true":
		return ir.True, nil
	case t.kind == tokIdent && t.text == "false":
		return ir.False, nil
	default:
		return nil, &parseError{line: t.line, msg: fmt.Sprintf("expected value, found %s", t)}
	}
}

// parseTypedValue parses "<type> <value>".
func (p *parser) parseTypedValue() (ir.Value, error) {
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseValueOf(ty)
}

// parseLabelRef parses "label %name".
func (p *parser) parseLabelRef() (*ir.Block, error) {
	if err := p.expectIdent("label"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokLocal {
		return nil, &parseError{line: t.line, msg: fmt.Sprintf("expected block label, found %s", t)}
	}
	return p.blockRef(t.text), nil
}

// parseInstr parses one instruction.
func (p *parser) parseInstr() (*ir.Instruction, error) {
	name := ""
	if p.peek().kind == tokLocal {
		name = p.next().text
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
	}
	opTok := p.next()
	if opTok.kind != tokIdent {
		return nil, &parseError{line: opTok.line, msg: fmt.Sprintf("expected opcode, found %s", opTok)}
	}
	op := ir.OpcodeByName(opTok.text)
	if op == ir.OpInvalid {
		return nil, &parseError{line: opTok.line, msg: fmt.Sprintf("unknown opcode %q", opTok.text)}
	}
	in, err := p.parseInstrBody(op)
	if err != nil {
		return nil, err
	}
	if name != "" {
		if ir.IsVoid(in.Type()) {
			return nil, p.errf("%%%s = on void instruction %v", name, op)
		}
		in.SetName(name)
		if err := p.defineLocal(name, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func (p *parser) parseInstrBody(op ir.Opcode) (*ir.Instruction, error) {
	switch {
	case op == ir.OpRet:
		want := p.fn.Sig().Ret
		if p.acceptIdent("void") {
			if !ir.IsVoid(want) {
				return nil, p.errf("ret void in @%s returning %v", p.fn.Name(), want)
			}
			return ir.NewRet(nil), nil
		}
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if !ir.TypesEqual(v.Type(), want) {
			return nil, p.errf("ret %v in @%s returning %v", v.Type(), p.fn.Name(), want)
		}
		return ir.NewRet(v), nil

	case op == ir.OpBr:
		if p.peek().kind == tokIdent && p.peek().text == "label" {
			dest, err := p.parseLabelRef()
			if err != nil {
				return nil, err
			}
			return ir.NewBr(dest), nil
		}
		cond, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		t, err := p.parseLabelRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		f, err := p.parseLabelRef()
		if err != nil {
			return nil, err
		}
		if !ir.TypesEqual(cond.Type(), ir.I1) {
			return nil, p.errf("branch condition of type %v", cond.Type())
		}
		return ir.NewCondBr(cond, t, f), nil

	case op == ir.OpSwitch:
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		def, err := p.parseLabelRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		var cases []ir.SwitchCase
		for !p.acceptPunct("]") {
			cv, err := p.parseTypedValue()
			if err != nil {
				return nil, err
			}
			ci, ok := cv.(*ir.ConstInt)
			if !ok {
				return nil, p.errf("switch case value must be an integer constant")
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			dest, err := p.parseLabelRef()
			if err != nil {
				return nil, err
			}
			cases = append(cases, ir.SwitchCase{Val: ci, Dest: dest})
		}
		return ir.NewSwitch(v, def, cases...), nil

	case op == ir.OpUnreachable:
		return ir.NewUnreachable(), nil

	case op == ir.OpInvoke, op == ir.OpCall:
		return p.parseCallLike(op)

	case op == ir.OpResume:
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		return ir.NewResume(v), nil

	case op.IsBinary():
		a, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValueOf(a.Type())
		if err != nil {
			return nil, err
		}
		return ir.NewBinary(op, "", a, b), nil

	case op == ir.OpICmp, op == ir.OpFCmp:
		predTok := p.next()
		pred := ir.PredByName(predTok.text)
		if pred == ir.PredInvalid {
			return nil, &parseError{line: predTok.line, msg: fmt.Sprintf("unknown predicate %q", predTok.text)}
		}
		a, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseValueOf(a.Type())
		if err != nil {
			return nil, err
		}
		if op == ir.OpICmp {
			return ir.NewICmp("", pred, a, b), nil
		}
		return ir.NewFCmp("", pred, a, b), nil

	case op == ir.OpAlloca:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ir.NewAlloca("", ty), nil

	case op == ir.OpLoad:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		pt, ok := ptr.Type().(*ir.PointerType)
		if !ok || !ir.TypesEqual(pt.Elem, ty) {
			return nil, p.errf("load pointer/type mismatch")
		}
		return ir.NewLoad("", ptr), nil

	case op == ir.OpStore:
		val, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		ptr, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if pt, ok := ptr.Type().(*ir.PointerType); !ok || !ir.TypesEqual(pt.Elem, val.Type()) {
			return nil, p.errf("store pointer/value type mismatch")
		}
		return ir.NewStore(val, ptr), nil

	case op == ir.OpGEP:
		if _, err := p.parseType(); err != nil { // pointee type, redundant
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		base, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		var indices []ir.Value
		for p.acceptPunct(",") {
			idx, err := p.parseTypedValue()
			if err != nil {
				return nil, err
			}
			indices = append(indices, idx)
		}
		if _, err := ir.GEPType(base.Type(), indices); err != nil {
			return nil, p.errf("%v", err)
		}
		return ir.NewGEP("", base, indices...), nil

	case op.IsCast():
		v, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectIdent("to"); err != nil {
			return nil, err
		}
		to, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ir.NewCast(op, "", v, to), nil

	case op == ir.OpPhi:
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		phi := ir.NewPhi("", ty)
		for first := true; first || p.acceptPunct(","); first = false {
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			v, err := p.parseValueOf(ty)
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			bt := p.next()
			if bt.kind != tokLocal {
				return nil, &parseError{line: bt.line, msg: "expected incoming block"}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			phi.AddIncoming(v, p.blockRef(bt.text))
		}
		return phi, nil

	case op == ir.OpSelect:
		cond, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		a, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		b, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		if !ir.TypesEqual(cond.Type(), ir.I1) {
			return nil, p.errf("select condition of type %v", cond.Type())
		}
		if !ir.TypesEqual(a.Type(), b.Type()) {
			return nil, p.errf("select arms of types %v and %v", a.Type(), b.Type())
		}
		return ir.NewSelect("", cond, a, b), nil

	case op == ir.OpLandingPad:
		cleanup := p.acceptIdent("cleanup")
		return ir.NewLandingPad("", cleanup), nil
	}
	return nil, p.errf("unsupported opcode %v", op)
}

// parseCallLike parses call and invoke instructions.
func (p *parser) parseCallLike(op ir.Opcode) (*ir.Instruction, error) {
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	calleeTok := p.next()
	if calleeTok.kind != tokGlobal && calleeTok.kind != tokLocal {
		return nil, &parseError{line: calleeTok.line, msg: fmt.Sprintf("expected callee, found %s", calleeTok)}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []ir.Value
	var argTypes []ir.Type
	for !p.acceptPunct(")") {
		if len(args) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseTypedValue()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		argTypes = append(argTypes, a.Type())
	}
	var callee ir.Value
	if calleeTok.kind == tokGlobal {
		f := p.m.FuncByName(calleeTok.text)
		if f == nil {
			if p.m.GlobalByName(calleeTok.text) != nil {
				return nil, p.errf("%v of @%s, a global variable", op, calleeTok.text)
			}
			// Synthesize a declaration from the call-site types: the paper's
			// examples call externals (start, body, end) without declaring them.
			f = ir.NewFunction(calleeTok.text, ir.FuncOf(ret, argTypes...))
			p.m.AddFunc(f)
		}
		sig := f.Sig()
		if !ir.TypesEqual(sig.Ret, ret) {
			return nil, p.errf("call return type %v, @%s returns %v", ret, f.Name(), sig.Ret)
		}
		if len(args) < len(sig.Params) || len(args) > len(sig.Params) && !sig.Variadic {
			return nil, p.errf("%v passes %d arguments, @%s takes %d", op, len(args), f.Name(), len(sig.Params))
		}
		for i, want := range sig.Params {
			if !ir.TypesEqual(argTypes[i], want) {
				return nil, p.errf("%v argument %d of type %v, @%s takes %v", op, i, argTypes[i], f.Name(), want)
			}
		}
		callee = f
	} else {
		ft := ir.FuncOf(ret, argTypes...)
		callee, err = p.localRef(calleeTok.text, ir.PtrTo(ft))
		if err != nil {
			return nil, err
		}
	}
	if op == ir.OpCall {
		return ir.NewCall("", callee, args...), nil
	}
	if err := p.expectIdent("to"); err != nil {
		return nil, err
	}
	normal, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("unwind"); err != nil {
		return nil, err
	}
	unwind, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	return ir.NewInvoke("", callee, args, normal, unwind), nil
}
