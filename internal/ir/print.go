package ir

import (
	"fmt"
	"sort"
	"strings"
)

// nameTable assigns unique printable names to the local values of a
// function (arguments, blocks, instruction results).
type nameTable struct {
	names map[Value]string
	used  map[string]bool
	next  int
}

func buildNames(f *Function) *nameTable {
	t := &nameTable{names: map[Value]string{}, used: map[string]bool{}}
	for _, p := range f.params {
		t.assign(p, p.Name())
	}
	for _, b := range f.Blocks {
		t.assign(b, b.Name())
	}
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			if IsVoid(in.typ) {
				continue
			}
			t.assign(in, in.Name())
		}
	}
	return t
}

func (t *nameTable) assign(v Value, pref string) {
	name := pref
	if name == "" {
		name = fmt.Sprint(t.next)
		t.next++
	}
	for t.used[name] {
		name = fmt.Sprintf("%s.%d", pref, t.next)
		t.next++
	}
	t.used[name] = true
	t.names[v] = name
}

// ref returns the reference form of v ("%x", "@f", "42", "undef", ...).
func (t *nameTable) ref(v Value) string {
	switch v := v.(type) {
	case *ConstInt:
		return fmt.Sprint(v.V)
	case *ConstFloat:
		s := fmt.Sprintf("%g", v.V)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *Undef:
		return "undef"
	case *ConstNull:
		return "null"
	case *Function:
		return "@" + v.Name()
	case *GlobalVar:
		return "@" + v.Name()
	case *Block:
		return "%" + t.localName(v)
	default:
		return "%" + t.localName(v)
	}
}

func (t *nameTable) localName(v Value) string {
	if n, ok := t.names[v]; ok {
		return n
	}
	// Detached or foreign value; print something recognisable.
	return fmt.Sprintf("<badref:%p>", v)
}

// typedRef returns "type ref".
func (t *nameTable) typedRef(v Value) string {
	return v.Type().String() + " " + t.ref(v)
}

func instrString(in *Instruction, t *nameTable) string {
	var sb strings.Builder
	if !IsVoid(in.typ) {
		fmt.Fprintf(&sb, "%%%s = ", t.localName(in))
	}
	op := in.op
	switch {
	case op == OpRet:
		if len(in.operands) == 0 {
			sb.WriteString("ret void")
		} else {
			fmt.Fprintf(&sb, "ret %s", t.typedRef(in.operands[0]))
		}
	case op == OpBr && len(in.operands) == 1:
		fmt.Fprintf(&sb, "br label %s", t.ref(in.operands[0]))
	case op == OpBr:
		fmt.Fprintf(&sb, "br %s, label %s, label %s",
			t.typedRef(in.operands[0]), t.ref(in.operands[1]), t.ref(in.operands[2]))
	case op == OpSwitch:
		fmt.Fprintf(&sb, "switch %s, label %s [", t.typedRef(in.operands[0]), t.ref(in.operands[1]))
		for _, c := range in.SwitchCases() {
			fmt.Fprintf(&sb, " %s, label %s", t.typedRef(c.Val), t.ref(c.Dest))
		}
		sb.WriteString(" ]")
	case op == OpUnreachable:
		sb.WriteString("unreachable")
	case op == OpInvoke:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = t.typedRef(a)
		}
		fmt.Fprintf(&sb, "invoke %s %s(%s) to label %s unwind label %s",
			calleeFuncType(in.Callee()).Ret, t.ref(in.Callee()), strings.Join(args, ", "),
			t.ref(in.NormalDest()), t.ref(in.UnwindDest()))
	case op == OpResume:
		fmt.Fprintf(&sb, "resume %s", t.typedRef(in.operands[0]))
	case op.IsBinary():
		fmt.Fprintf(&sb, "%s %s, %s", op, t.typedRef(in.operands[0]), t.ref(in.operands[1]))
	case op == OpICmp || op == OpFCmp:
		fmt.Fprintf(&sb, "%s %s %s, %s", op, in.Pred(), t.typedRef(in.operands[0]), t.ref(in.operands[1]))
	case op == OpAlloca:
		fmt.Fprintf(&sb, "alloca %s", in.AllocTy())
	case op == OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", in.typ, t.typedRef(in.operands[0]))
	case op == OpStore:
		fmt.Fprintf(&sb, "store %s, %s", t.typedRef(in.operands[0]), t.typedRef(in.operands[1]))
	case op == OpGEP:
		base := in.operands[0]
		elem := base.Type().(*PointerType).Elem
		fmt.Fprintf(&sb, "getelementptr %s, %s", elem, t.typedRef(base))
		for _, idx := range in.operands[1:] {
			fmt.Fprintf(&sb, ", %s", t.typedRef(idx))
		}
	case op.IsCast():
		fmt.Fprintf(&sb, "%s %s to %s", op, t.typedRef(in.operands[0]), in.typ)
	case op == OpPhi:
		fmt.Fprintf(&sb, "phi %s ", in.typ)
		for i := 0; i < in.NumIncoming(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[ %s, %s ]", t.ref(in.IncomingValue(i)), t.ref(in.IncomingBlock(i)))
		}
	case op == OpSelect:
		fmt.Fprintf(&sb, "select %s, %s, %s",
			t.typedRef(in.operands[0]), t.typedRef(in.operands[1]), t.typedRef(in.operands[2]))
	case op == OpCall:
		args := make([]string, len(in.Args()))
		for i, a := range in.Args() {
			args[i] = t.typedRef(a)
		}
		fmt.Fprintf(&sb, "call %s %s(%s)",
			calleeFuncType(in.Callee()).Ret, t.ref(in.Callee()), strings.Join(args, ", "))
	case op == OpLandingPad:
		sb.WriteString("landingpad")
		if in.Cleanup {
			sb.WriteString(" cleanup")
		}
	default:
		fmt.Fprintf(&sb, "<unknown op %d>", op)
	}
	return sb.String()
}

// String renders the function in the textual IR syntax accepted by
// package irtext.
func (f *Function) String() string {
	var sb strings.Builder
	params := make([]string, len(f.params))
	t := buildNames(f)
	for i, p := range f.params {
		params[i] = fmt.Sprintf("%s %%%s", p.Type(), t.localName(p))
	}
	if f.IsDecl() {
		fmt.Fprintf(&sb, "declare %s @%s(%s)\n", f.sig.Ret, f.name, strings.Join(params, ", "))
		return sb.String()
	}
	fmt.Fprintf(&sb, "define %s @%s(%s) {\n", f.sig.Ret, f.name, strings.Join(params, ", "))
	for i, b := range f.Blocks {
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%s:\n", t.localName(b))
		for _, in := range b.instrs {
			sb.WriteString("  ")
			sb.WriteString(instrString(in, t))
			sb.WriteString("\n")
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String renders the whole module in textual IR syntax.
func (m *Module) String() string {
	var sb strings.Builder
	for _, g := range m.Globals {
		if g.Init != nil {
			init := "zeroinitializer"
			switch c := g.Init.(type) {
			case *ConstInt:
				init = fmt.Sprint(c.V)
			case *ConstFloat:
				init = fmt.Sprintf("%g", c.V)
			case *Undef:
				init = "undef"
			case *ConstNull:
				init = "null"
			}
			fmt.Fprintf(&sb, "@%s = global %s %s\n", g.Name(), g.ValueTy, init)
		} else {
			fmt.Fprintf(&sb, "@%s = external global %s\n", g.Name(), g.ValueTy)
		}
	}
	if len(m.Globals) > 0 {
		sb.WriteString("\n")
	}
	// Declarations first, sorted for stable output, then definitions in
	// module order.
	var decls []*Function
	for _, f := range m.Funcs {
		if f.IsDecl() {
			decls = append(decls, f)
		}
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	for _, f := range decls {
		sb.WriteString(f.String())
	}
	if len(decls) > 0 {
		sb.WriteString("\n")
	}
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			sb.WriteString(f.String())
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
