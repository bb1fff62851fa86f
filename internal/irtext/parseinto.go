package irtext

import (
	"fmt"

	"repro/internal/ir"
)

// ParseInto splices the textual IR fragment src into the live module m.
// It is the wire-format half of streaming module deltas: a fragment may
// declare globals and functions the module already has (types and
// signatures must agree), add new ones, and — unlike Parse — redefine
// the body of an existing function.
//
// Redefinition preserves pointer identity: the body is parsed into a
// detached staging donor and grafted with ir.Function.AdoptBody only
// after the entire fragment parsed and validated, so call instructions
// elsewhere in the module keep pointing at the same *ir.Function and a
// malformed fragment leaves the module exactly as it was (functions and
// globals the fragment added are rolled back too).
//
// The returned names are the functions src defined (new or redefined),
// in fragment order — the set a driver.Session needs passed to Update.
func ParseInto(m *ir.Module, src string) ([]string, error) {
	return ParseIntoChecked(m, src, nil)
}

// ParseIntoChecked is ParseInto with a veto: once the whole fragment has
// parsed, and before any body is grafted, check (when non-nil) is given
// the names src defines. If it fails, the module is rolled back exactly
// as on a parse error and check's error is returned as is; if it
// succeeds, the bodies are grafted, which cannot fail. A caller that
// must record the delta elsewhere (a session's marks) does it in check,
// so that the module changes only if the record took.
func ParseIntoChecked(m *ir.Module, src string, check func(defined []string) error) ([]string, error) {
	if m == nil {
		return nil, fmt.Errorf("irtext: ParseInto on nil module")
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	baseFuncs, baseGlobals := len(m.Funcs), len(m.Globals)
	p := &parser{toks: toks, m: m, into: true}
	err = p.parseModule()
	names := make([]string, 0, len(p.definedOrder))
	for _, f := range p.definedOrder {
		names = append(names, f.Name())
	}
	if err == nil && check != nil {
		err = check(names)
	}
	if err != nil {
		// Roll back everything the fragment added. Bodies only ever
		// landed in detached donors, and module-level values (functions,
		// globals) are not use-tracked, so dropping the additions cannot
		// leave dangling uses: pre-existing code could not have acquired
		// references to them.
		added := append([]*ir.Function(nil), m.Funcs[baseFuncs:]...)
		for _, f := range added {
			m.RemoveFunc(f)
		}
		m.Globals = m.Globals[:baseGlobals]
		return nil, err
	}
	for _, b := range p.bodies {
		if err := b.fn.AdoptBody(b.donor); err != nil {
			// Unreachable by construction: header parsing pinned the
			// signature and the donor is detached and defined.
			panic(fmt.Sprintf("irtext: splicing @%s: %v", b.fn.Name(), err))
		}
	}
	return names, nil
}
