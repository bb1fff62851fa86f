package ir

// CloneShape returns a detached copy of in without its operands: the
// same opcode, name, type, predicate and flags, and as many operand
// slots as in has, every one unset (nil) for the caller to set once
// (SetOperand). It is the one place the full field list of a copy
// lives. No use list anywhere is touched, in's operands' included: the
// code generator builds every merged instruction this way, so a trial
// never writes to the functions it merges.
func CloneShape(in *Instruction) *Instruction {
	c := allocInstr(len(in.operands))
	c.op, c.name, c.typ = in.op, in.name, in.typ
	// A fresh or released operand array is cleared, so every slot reads
	// nil.
	c.operands = c.operands[:len(in.operands)]
	c.pred, c.Cleanup = in.pred, in.Cleanup
	return c
}

// CloneFunction returns a deep copy of f named name, together with the
// value map from original values (arguments, blocks, instructions) to
// their clones.
//
// Cloning is strictly read-only on f: the cost model's slack probe
// clones live candidates in the middle of a run, and sessions decide
// what to re-read from edit counters and block stamps, so neither f's
// use lists nor its stamps may move, not even transiently. Every copy
// is therefore built detached (CloneShape) first; then, block by block,
// each copy's operands are set in the clone's value space and only then
// is it appended, so nothing of f is ever an operand of an attached
// instruction.
func CloneFunction(f *Function, name string) (*Function, map[Value]Value) {
	clone := NewFunction(name, f.sig)
	vmap := make(map[Value]Value, f.NumInstrs()+len(f.params))
	for i, p := range f.params {
		clone.params[i].SetName(p.Name())
		vmap[p] = clone.params[i]
	}
	for _, b := range f.Blocks {
		vmap[b] = clone.NewBlockIn(b.name)
	}
	for _, b := range f.Blocks {
		for _, in := range b.instrs {
			vmap[in] = CloneShape(in)
		}
	}
	// Operands without a mapping are constants, globals or functions,
	// which do not track uses.
	for _, b := range f.Blocks {
		nb := vmap[b].(*Block)
		for _, in := range b.instrs {
			c := vmap[in].(*Instruction)
			for i, op := range in.operands {
				if nv, ok := vmap[op]; ok {
					op = nv
				}
				c.operands[i] = op
				if u, ok := op.(usable); ok {
					u.addUse(Use{User: c, Index: i})
				}
			}
			nb.Append(c)
		}
	}
	return clone, vmap
}

// CloneModule returns a deep copy of m. Function bodies and the function
// list are copied; GlobalVar objects are shared (they are immutable
// descriptors — runtime storage is owned by interpreter environments).
func CloneModule(m *Module) *Module {
	out := NewModule()
	fnMap := make(map[*Function]*Function, len(m.Funcs))
	for _, f := range m.Funcs {
		nf := NewFunction(f.Name(), f.sig)
		for i, p := range f.params {
			nf.params[i].SetName(p.Name())
		}
		out.AddFunc(nf)
		fnMap[f] = nf
	}
	out.Globals = append(out.Globals, m.Globals...)
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		nf := fnMap[f]
		CloneFunctionInto(nf, f)
		// Remap function-reference operands into the new module.
		for _, b := range nf.Blocks {
			for _, in := range b.instrs {
				for i, op := range in.operands {
					if g, ok := op.(*Function); ok {
						if ng, ok := fnMap[g]; ok {
							in.SetOperand(i, ng)
						}
					}
				}
			}
		}
	}
	return out
}

// CloneFunctionInto clones f's body into dst, which must share f's
// signature and be a declaration. Returns the value map.
func CloneFunctionInto(dst, f *Function) map[Value]Value {
	if !dst.IsDecl() {
		panic("ir: CloneFunctionInto target has a body")
	}
	if !TypesEqual(dst.sig, f.sig) {
		panic("ir: CloneFunctionInto signature mismatch")
	}
	tmp, vmap := CloneFunction(f, dst.name)
	moveBody(dst, tmp)
	for i, p := range f.params {
		vmap[p] = dst.params[i]
	}
	return vmap
}
