package core

import "duel/internal/duel/value"

// Views of evaluator internals for the external core_test package, whose
// tests import the compiled backend and so cannot live in package core.

// WithDepth reports how many with-scopes are open on e's name-resolution
// stack.
func WithDepth(e *Env) int { return len(e.withStack) }

// ExpandSym renders the --> path symbol of the node reached from root by
// stepping through fields in order, as the traversal renders it.
func ExpandSym(e *Env, root value.Sym, fields []string) value.Sym {
	x := expansion{e: e, prefix: root.At(value.PrecPostfix)}
	var p *expandPath
	for _, f := range fields {
		p = p.push(f)
	}
	return x.sym(p)
}
