package core

// This file is the compiler-support bridge: exported, thin wrappers over the
// evaluator's internal helpers, so an out-of-package backend (today only
// internal/core/compiled) can reproduce the push evaluator's semantics —
// counters, symbolic composition and error text included — byte for byte
// without core having to export its whole internals ad hoc. Every wrapper is
// a direct delegation; the semantics live in env.go and push.go, and the
// differential tests hold the compiled backend to them.

import (
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// ErrStop is the enumeration-terminating sentinel shared by all backends
// (reductions, while, @, sizeof stop driving their operand early by
// returning it). It must never escape a backend's Eval.
var ErrStop = errStop

// BeginEval prepares per-command state; a Backend.Eval implementation must
// call it first, exactly like the built-in backends do.
func (e *Env) BeginEval() { e.beginEval() }

// Step accounts one produced value of n and enforces the step/timeout
// limits. Backends must call it at exactly the same points as the push
// evaluator (node entry, plus once per range iteration) so that limits fire
// on identical step counts and error text.
func (e *Env) Step(n *ast.Node) error { return e.step(n) }

// Fetch resolves a name exactly like the paper's fetch: with-scopes
// innermost first, then aliases, then target variables, then enum constants.
func (e *Env) Fetch(name string) (value.Value, error) { return e.fetch(name) }

// Rval performs lvalue conversion, counting loads and containing read faults
// under Options.ErrorValues.
func (e *Env) Rval(v value.Value) (value.Value, error) { return e.rval(v) }

// Truth converts a value to a C truth value (rval + non-zero test).
func (e *Env) Truth(u value.Value) (bool, error) { return e.truth(u) }

// ContainStore classifies a failed Store exactly like the built-in
// backends: under Options.ErrorValues a read-only-target fault becomes a
// per-element error value instead of aborting the evaluation.
func (e *Env) ContainStore(dst value.Value, err error) (value.Value, bool) {
	return e.containStore(dst, err)
}

// RangeBound converts a range operand to its integer bound.
func (e *Env) RangeBound(u value.Value) (int64, error) { return e.rangeBound(u) }

// YieldInt emits an int value whose symbolic value is the integer itself.
func (e *Env) YieldInt(i int64, yield EmitFn) error { return e.yieldInt(i, yield) }

// YieldBool emits 1 or 0 as YieldInt does.
func (e *Env) YieldBool(b bool, yield EmitFn) error { return e.yieldBool(b, yield) }

// InternString materializes a string literal in the target (once per node).
func (e *Env) InternString(n *ast.Node) (value.Value, error) { return e.internString(n) }

// Atom builds a leaf symbolic value, gated on Options.Symbolic.
func (e *Env) Atom(s string) value.Sym { return e.atom(s) }

// IntAtom builds the symbolic value of an integer.
func (e *Env) IntAtom(i int64) value.Sym { return e.intAtom(i) }

// BinSym composes "a op b" at the given precedence.
func (e *Env) BinSym(a value.Sym, op string, b value.Sym, prec int) value.Sym {
	return e.binSym(a, op, b, prec)
}

// PreSym composes a prefix application "op a".
func (e *Env) PreSym(op string, a value.Sym) value.Sym { return e.preSym(op, a) }

// PostSym composes a postfix application "a op".
func (e *Env) PostSym(a value.Sym, op string) value.Sym { return e.postSym(a, op) }

// IndexSym composes "base[idx]".
func (e *Env) IndexSym(base, idx value.Sym) value.Sym { return e.indexSym(base, idx) }

// ScanIndexSym composes "prefix idx ]" from a precomputed "base[" prefix —
// the compiled backend's fused scan loop hot path. Counts one SymOp like
// IndexSym.
func (e *Env) ScanIndexSym(prefix, idx string) value.Sym { return e.scanIndexSym(prefix, idx) }

// WithOpSym composes the symbolic value of a with expression (base.inner or
// base->inner, passing "_" results through unchanged).
func (e *Env) WithOpSym(base value.Sym, op string, inner value.Sym) value.Sym {
	return e.withSym(base, op, inner)
}

// EnterWith opens u's scope on the name-resolution stack for one operand of
// '.' or '->' (dereferencing through the pointer for arrow). On success the
// caller must ExitWith after evaluating the scoped subexpression.
func (e *Env) EnterWith(u value.Value, arrow bool) error {
	entry, err := e.makeWithEntry(u, arrow)
	if err != nil {
		return err
	}
	e.pushWith(entry)
	return nil
}

// Expand runs e1-->e2 (bfs for -->>) from one value u of e1 with the
// traversal push uses, prefetching each node's struct under
// Options.Prefetch: kids generates e2's values under each visited node's
// scope, and each node is yielded after its children are queued.
func (e *Env) Expand(u value.Value, bfs bool, kids func(EmitFn) error, yield EmitFn) error {
	return e.expandEach(u, bfs, e.Opts.Prefetch, kids, yield)
}

// ExitWith pops the innermost with-scope.
func (e *Env) ExitWith() { e.popWith() }

// UntilStops decides whether e@n stops at value u (see untilStops).
func (e *Env) UntilStops(u value.Value, stopKid *ast.Node, drainCond func(*ast.Node) (bool, error)) (bool, error) {
	return e.untilStops(u, stopKid, drainCond)
}

// CDirectField reports whether the right side of a with node takes C
// field-access semantics (Options.CScoping and a bare name).
func (e *Env) CDirectField(kid *ast.Node) bool { return e.cDirectField(kid) }

// DirectField resolves C-style field access without opening a with-scope.
func (e *Env) DirectField(u value.Value, name string, arrow bool) (value.Value, error) {
	return e.directField(u, name, arrow)
}

// ValidPointer reports whether pointer rvalue p is non-null and points to
// readable memory of its pointee's size.
func (e *Env) ValidPointer(p value.Value) bool { return e.validPointer(p) }

// BackendCache returns the opaque per-session slot a backend may use for
// compiled artifacts (set with SetBackendCache). It is cleared never and
// shared by nothing: one Env, one slot.
func (e *Env) BackendCache() any { return e.backendCache }

// SetBackendCache stores v in the per-session backend slot.
func (e *Env) SetBackendCache(v any) { e.backendCache = v }

// OpPrec exposes the operator precedence table used for symbolic
// composition.
func OpPrec(op ast.Op) int { return opPrec(op) }

// CompoundBase maps a compound-assignment operator to its base binary
// operator (OpInvalid for plain assignment).
func CompoundBase(op ast.Op) ast.Op { return compoundBase(op) }

// SizeofValue measures a produced value for sizeof(expr), reporting the
// contained fault of an error value instead of a size.
func SizeofValue(u value.Value) (int, error) { return sizeofValue(u) }
