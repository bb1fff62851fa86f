package irtext

import (
	"fmt"
	"strconv"

	"repro/internal/ir"
)

// Parse parses the textual IR in src and returns the module.
func Parse(src string) (*ir.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, m: ir.NewModule()}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	return p.m, nil
}

// MustParse is Parse, panicking on error. Intended for tests and examples
// with literal sources.
func MustParse(src string) *ir.Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("irtext: line %d: %s", e.line, e.msg) }

type pendingBody struct {
	fn    *ir.Function
	start int // token index just after '{'
	// donor is the detached staging function the body is parsed into in
	// splice mode (ParseInto); nil when parsing directly into fn.
	donor *ir.Function
}

type parser struct {
	toks []token
	pos  int
	m    *ir.Module

	// into marks splice mode (ParseInto): define may redefine an
	// existing function, and every body is parsed into a detached donor
	// that is grafted only after the whole fragment parsed cleanly.
	into bool
	// definedHere tracks functions defined by this source, so a second
	// define of the same name in one fragment is rejected instead of
	// silently appending blocks; definedOrder preserves their order for
	// ParseInto's result.
	definedHere  map[*ir.Function]bool
	definedOrder []*ir.Function
	// bodies are the functions src defines, in source order; in splice
	// mode each is staged in its donor until ParseIntoChecked grafts it.
	bodies []pendingBody

	// depth is how many struct and array types enclose the type being
	// parsed (parseNested).
	depth int

	// Per-function state.
	fn     *ir.Function
	locals map[string]ir.Value
	phs    map[string]*ir.Placeholder
	blocks map[string]*ir.Block
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &parseError{line: p.peek().line, msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return &parseError{line: t.line, msg: fmt.Sprintf("expected %q, found %s", s, t)}
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptIdent(s string) bool {
	if t := p.peek(); t.kind == tokIdent && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectIdent(s string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != s {
		return &parseError{line: t.line, msg: fmt.Sprintf("expected %q, found %s", s, t)}
	}
	return nil
}

// parseModule runs two passes: headers (globals, declarations, define
// signatures) then function bodies, so that calls may reference functions
// defined later in the file.
func (p *parser) parseModule() error {
	for p.peek().kind != tokEOF {
		switch t := p.peek(); {
		case t.kind == tokGlobal:
			if err := p.parseGlobal(); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "declare":
			if _, _, err := p.parseFuncHeader(); err != nil {
				return err
			}
		case t.kind == tokIdent && t.text == "define":
			fn, names, err := p.parseFuncHeader()
			if err != nil {
				return err
			}
			if p.definedHere[fn] {
				return p.errf("@%s defined twice", fn.Name())
			}
			if p.definedHere == nil {
				p.definedHere = map[*ir.Function]bool{}
			}
			p.definedHere[fn] = true
			p.definedOrder = append(p.definedOrder, fn)
			var donor *ir.Function
			if p.into {
				// Splice mode: never parse into the live function.
				// The body lands in a detached donor first and is
				// grafted only after the whole fragment checked out.
				donor = ir.NewFunction(fn.Name(), fn.Sig(), names...)
			} else if !fn.IsDecl() {
				return p.errf("@%s defined twice", fn.Name())
			}
			if err := p.expectPunct("{"); err != nil {
				return err
			}
			p.bodies = append(p.bodies, pendingBody{fn: fn, start: p.pos, donor: donor})
			if err := p.skipBody(); err != nil {
				return err
			}
		default:
			return p.errf("expected global, declare or define, found %s", t)
		}
	}
	for _, b := range p.bodies {
		p.pos = b.start
		target := b.fn
		if b.donor != nil {
			target = b.donor
		}
		if err := p.parseBody(target); err != nil {
			return err
		}
	}
	return nil
}

// skipBody advances past a brace-balanced function body (struct types
// inside the body balance too).
func (p *parser) skipBody() error {
	depth := 1
	for depth > 0 {
		t := p.next()
		switch {
		case t.kind == tokEOF:
			return &parseError{line: t.line, msg: "unexpected end of input in function body"}
		case t.kind == tokPunct && t.text == "{":
			depth++
		case t.kind == tokPunct && t.text == "}":
			depth--
		}
	}
	return nil
}

// parseGlobal parses "@name = global <ty> <init>" or
// "@name = external global <ty>".
func (p *parser) parseGlobal() error {
	nameLine := p.peek().line
	name := p.next().text
	if err := p.expectPunct("="); err != nil {
		return err
	}
	external := p.acceptIdent("external")
	if err := p.expectIdent("global"); err != nil {
		return err
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	var init ir.Constant
	if !external {
		switch t := p.peek(); {
		case t.kind == tokInt:
			it, ok := ty.(*ir.IntType)
			if !ok {
				return p.errf("integer initializer for non-integer global")
			}
			v, _ := strconv.ParseInt(p.next().text, 10, 64)
			init = ir.NewConstInt(it, v)
		case t.kind == tokFloat:
			ft, ok := ty.(*ir.FloatType)
			if !ok {
				return p.errf("float initializer for non-float global")
			}
			v, _ := strconv.ParseFloat(p.next().text, 64)
			init = ir.NewConstFloat(ft, v)
		case t.kind == tokIdent && t.text == "zeroinitializer":
			p.next()
			init = zeroConstant(ty)
		case t.kind == tokIdent && t.text == "undef":
			p.next()
			init = ir.NewUndef(ty)
		case t.kind == tokIdent && t.text == "null":
			p.next()
			pt, ok := ty.(*ir.PointerType)
			if !ok {
				return p.errf("null initializer for non-pointer global")
			}
			init = ir.NewConstNull(pt)
		default:
			return p.errf("expected global initializer, found %s", t)
		}
	}
	if existing := p.m.GlobalByName(name); existing != nil {
		// A re-mention is fine as long as the type agrees; the original
		// definition (and its initializer) wins. Fragments spliced by
		// ParseInto routinely re-declare the globals they reference.
		if !ir.TypesEqual(existing.ValueTy, ty) {
			return &parseError{line: nameLine,
				msg: fmt.Sprintf("@%s redeclared with different type", name)}
		}
		return nil
	}
	p.m.AddGlobal(ir.NewGlobalVar(name, ty, init))
	return nil
}

func zeroConstant(ty ir.Type) ir.Constant {
	switch ty := ty.(type) {
	case *ir.IntType:
		return ir.NewConstInt(ty, 0)
	case *ir.FloatType:
		return ir.NewConstFloat(ty, 0)
	case *ir.PointerType:
		return ir.NewConstNull(ty)
	default:
		return ir.NewUndef(ty)
	}
}

// parseFuncHeader parses "define|declare <ty> @name(<ty> [%name], ...)".
// The parsed parameter names are returned alongside the function, since
// for a pre-existing function they are not recorded on it.
func (p *parser) parseFuncHeader() (*ir.Function, []string, error) {
	p.next() // define/declare
	ret, err := p.parseType()
	if err != nil {
		return nil, nil, err
	}
	nameTok := p.next()
	if nameTok.kind != tokGlobal {
		return nil, nil, &parseError{line: nameTok.line, msg: fmt.Sprintf("expected function name, found %s", nameTok)}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	var params []ir.Type
	var names []string
	variadic := false
	for !p.acceptPunct(")") {
		if len(params) > 0 || variadic {
			if err := p.expectPunct(","); err != nil {
				return nil, nil, err
			}
		}
		if p.acceptPunct("...") {
			variadic = true
			continue
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, nil, err
		}
		pn := ""
		if p.peek().kind == tokLocal {
			pn = p.next().text
		}
		params = append(params, pt)
		names = append(names, pn)
	}
	sig := &ir.FuncType{Ret: ret, Params: params, Variadic: variadic}
	if existing := p.m.FuncByName(nameTok.text); existing != nil {
		if !ir.TypesEqual(existing.Sig(), sig) {
			return nil, nil, &parseError{line: nameTok.line,
				msg: fmt.Sprintf("@%s redeclared with different signature", nameTok.text)}
		}
		return existing, names, nil
	}
	fn := ir.NewFunction(nameTok.text, sig, names...)
	p.m.AddFunc(fn)
	return fn, names, nil
}

// parseType parses a type, including pointer suffixes.
func (p *parser) parseType() (ir.Type, error) {
	var ty ir.Type
	switch t := p.next(); {
	case t.kind == tokIdent && t.text == "void":
		ty = ir.Void
	case t.kind == tokIdent && t.text == "label":
		ty = ir.Label
	case t.kind == tokIdent && t.text == "float":
		ty = ir.F32
	case t.kind == tokIdent && t.text == "double":
		ty = ir.F64
	case t.kind == tokIdent && len(t.text) > 1 && t.text[0] == 'i':
		bits, err := strconv.Atoi(t.text[1:])
		if err != nil || bits < 1 || bits > 64 {
			return nil, &parseError{line: t.line, msg: fmt.Sprintf("bad integer type %q", t.text)}
		}
		ty = ir.IntN(bits)
	case t.kind == tokPunct && t.text == "{":
		var fields []ir.Type
		for !p.acceptPunct("}") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			ft, err := p.parseNested()
			if err != nil {
				return nil, err
			}
			fields = append(fields, ft)
		}
		ty = ir.StructOf(fields...)
	case t.kind == tokPunct && t.text == "[":
		nTok := p.next()
		if nTok.kind != tokInt {
			return nil, &parseError{line: nTok.line, msg: "expected array length"}
		}
		n, _ := strconv.Atoi(nTok.text)
		if err := p.expectIdent("x"); err != nil {
			return nil, err
		}
		elem, err := p.parseNested()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		ty = ir.ArrayOf(n, elem)
	default:
		return nil, &parseError{line: t.line, msg: fmt.Sprintf("expected type, found %s", t)}
	}
	for p.acceptPunct("*") {
		ty = ir.PtrTo(ty)
	}
	return ty, nil
}

// MaxTypeDepth is how deeply struct and array types may nest. The
// parser recurses once per level, and a stack overflow ends a Go
// process instead of panicking, so deeper input is a parse error.
const MaxTypeDepth = 256

// parseNested parses a struct field or array element type, one level
// deeper than the type that holds it.
func (p *parser) parseNested() (ir.Type, error) {
	if p.depth == MaxTypeDepth {
		return nil, p.errf("type nests deeper than %d levels", MaxTypeDepth)
	}
	p.depth++
	ty, err := p.parseType()
	p.depth--
	return ty, err
}
