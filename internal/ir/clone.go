package ir

// cloneInstrRaw returns a detached copy of in sharing its operand
// values but with NO uses registered — the one place the full field
// list of a copy lives, shared by both clone paths.
func cloneInstrRaw(in *Instruction) *Instruction {
	c := allocInstr(len(in.operands))
	c.op, c.name, c.typ = in.op, in.name, in.typ
	c.operands = append(c.operands, in.operands...)
	c.pred, c.Cleanup = in.pred, in.Cleanup
	return c
}

// CloneInstruction returns a detached copy of in referring to the same
// operands (uses registered). Auxiliary data (predicate, alloca type,
// cleanup flag) is preserved.
func CloneInstruction(in *Instruction) *Instruction {
	c := cloneInstrRaw(in)
	for i, v := range c.operands {
		if u, ok := v.(usable); ok {
			u.addUse(Use{User: c, Index: i})
			touchUses(v, false)
		}
	}
	return c
}

// CloneFunction returns a deep copy of f named name, together with the
// value map from original values (arguments, blocks, instructions) to
// their clones.
//
// Cloning is strictly read-only on f: the cost model's slack probe
// clones live candidates in the middle of a run, so no use-list of f
// may be touched, not even transiently. Cloned instructions are
// therefore built with raw (unregistered) operand slices and uses are
// registered only after every operand has been remapped into the clone's
// value space.
func CloneFunction(f *Function, name string) (*Function, map[Value]Value) {
	clone := NewFunction(name, f.sig)
	vmap := make(map[Value]Value, f.NumInstrs()+len(f.params))
	for i, p := range f.params {
		clone.params[i].SetName(p.Name())
		vmap[p] = clone.params[i]
	}
	for _, b := range f.Blocks {
		nb := clone.NewBlockIn(b.name)
		vmap[b] = nb
	}
	// First pass: raw copies holding the original operands, with no use
	// bookkeeping anywhere.
	for _, b := range f.Blocks {
		nb := vmap[b].(*Block)
		for _, in := range b.instrs {
			c := cloneInstrRaw(in)
			nb.Append(c)
			vmap[in] = c
		}
	}
	// Second pass: remap operands into the clone's value space and
	// register the uses on the clone's values. Operands without a mapping
	// are constants, globals or functions, which do not track uses.
	for _, b := range clone.Blocks {
		for _, in := range b.instrs {
			for i, op := range in.operands {
				if nv, ok := vmap[op]; ok {
					in.operands[i] = nv
				}
				if u, ok := in.operands[i].(usable); ok {
					u.addUse(Use{User: in, Index: i})
				}
			}
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
