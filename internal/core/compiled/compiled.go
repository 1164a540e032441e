// Package compiled implements the "compiled" evaluator backend: a one-pass
// compiler from the DUEL AST to Go closures. Where the push backend walks
// the AST on every evaluation — re-switching on the operator, re-deriving
// constant types, operator symbols and precedences each time — this backend
// performs all of that per-node work once, at compile time, and caches the
// resulting closure program per session so repeated evaluations of the same
// expression (REPL history, watch re-evaluation) pay only the residual
// runtime: memory traffic, value arithmetic and symbolic composition.
//
// The push backend is the reference semantics; this backend must be
// byte-identical to it — same emitted values, same error text, same counter
// bumps (Values/Applies/SymOps/Lookups/MemReads) and therefore the same
// StepLimitError behavior. Two consequences shape the compiler:
//
//   - Constant folding is restricted to per-node precomputation (constant
//     types, cast/operator spellings, sizeof sizes, precedences). Collapsing
//     whole constant subtrees would change the step count and diverge from
//     push under tight Options.MaxSteps, so it is deliberately not done.
//   - Operators whose semantics live on cold paths — declarations (one-shot
//     target allocation) and target function calls — bail to the interpreter
//     via Env.Drive, which is the push evaluator itself. The fallback is
//     byte-identical by construction.
//
// What the interpreter cannot do, and this backend adds, is the scan
// planner (plan.go): fused index-over-range and pointer-chase loops issue
// batched memio.Accessor.Prefetch reads ahead of the per-element loads, so
// a flat scan costs O(n/pagesize) host crossings instead of O(n).
package compiled

import (
	"errors"
	"fmt"
	"strconv"

	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// prog is one compiled (sub)expression: it produces every value of its node
// through yield, exactly as Env.evalPush would.
type prog func(e *core.Env, yield core.EmitFn) error

type backend struct{}

func init() { core.RegisterBackend(backend{}) }

// Name implements core.Backend.
func (backend) Name() string { return "compiled" }

// Eval implements core.Backend.
func (backend) Eval(e *core.Env, n *ast.Node, emit core.EmitFn) error {
	e.BeginEval()
	if !e.Mem.Caching() {
		// With the page cache off, pages exist only as prefetch stripes;
		// dropping them after the command keeps the accessor faithful to
		// its configured pass-through behavior between evaluations.
		defer e.Mem.ReleasePrefetched()
	}
	var err error
	if e.Opts.Trace != nil {
		// Options.Trace is written by the reference interpreter; a
		// traced evaluation runs there, so the trace is push's.
		err = e.Drive(n, emit)
	} else {
		err = cacheOf(e).lookup(n)(e, emit)
	}
	if errors.Is(err, core.ErrStop) {
		return fmt.Errorf("duel: internal error: stop sentinel escaped evaluation")
	}
	return err
}

// drop discards a subexpression's values (side effects only).
func drop(value.Value) error { return nil }

// stepped wraps body with the node-entry step every operator pays on entry,
// mirroring the step at the top of evalPush.
func stepped(n *ast.Node, body prog) prog {
	return func(e *core.Env, yield core.EmitFn) error {
		if err := e.Step(n); err != nil {
			return err
		}
		return body(e, yield)
	}
}

// compile translates n into a closure program. It runs once per node per
// session (the program cache holds the result); everything derivable from
// the AST alone — constant types, operator spellings, precedences, type
// sizes — is computed here, not in the returned closures.
func compile(n *ast.Node) prog {
	switch n.Op {
	case ast.OpConst:
		// The constant's C type depends only on the literal and the
		// architecture; resolve it on first use and keep it.
		var arch *ctype.Arch
		var ct ctype.Type
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			if arch != e.Ctx.Arch {
				arch = e.Ctx.Arch
				ct = core.ConstType(arch, n)
			}
			v := value.MakeInt(ct, int64(n.Int))
			v.Sym = e.Atom(n.Text)
			return yield(v)
		})
	case ast.OpFConst:
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			v := value.MakeFloat(e.Ctx.Arch.Double, n.Float)
			v.Sym = e.Atom(n.Text)
			return yield(v)
		})
	case ast.OpStr:
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			v, err := e.InternString(n)
			if err != nil {
				return err
			}
			return yield(v)
		})
	case ast.OpName:
		name := n.Name
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			v, err := e.Fetch(name)
			if err != nil {
				return err
			}
			return yield(v)
		})
	case ast.OpGroup:
		// groupSym is the identity, so a group adds only its entry step.
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, yield)
		})
	case ast.OpCurly:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(v value.Value) error {
				s, err := e.FormatScalar(v)
				if err != nil {
					return err
				}
				return yield(v.WithSym(e.Atom(s)))
			})
		})
	case ast.OpNothing:
		return stepped(n, func(*core.Env, core.EmitFn) error { return nil })

	// --- C unary operators ---
	case ast.OpNeg, ast.OpPos, ast.OpNot, ast.OpBitNot:
		kid := compile(n.Kids[0])
		op := n.Op
		sym := n.Op.Symbol()
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				e.Num.Applies++
				w, err := e.Ctx.Unary(op, ru)
				if err != nil {
					return err
				}
				return yield(w.WithSym(e.PreSym(sym, u.Sym)))
			})
		})
	case ast.OpIndirect:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				e.Num.Applies++
				w, err := e.Ctx.Deref(ru)
				if err != nil {
					return err
				}
				return yield(w.WithSym(e.PreSym("*", u.Sym)))
			})
		})
	case ast.OpAddrOf:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				e.Num.Applies++
				w, err := e.Ctx.AddrOf(u)
				if err != nil {
					return err
				}
				return yield(w.WithSym(e.PreSym("&", u.Sym)))
			})
		})
	case ast.OpCast:
		kid := compile(n.Kids[0])
		castType := n.Type
		castSym := "(" + n.Type.String() + ")"
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				e.Num.Applies++
				w, err := e.Ctx.Convert(ru, castType)
				if err != nil {
					return err
				}
				return yield(w.WithSym(e.PreSym(castSym, u.Sym)))
			})
		})
	case ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec:
		kid := compile(n.Kids[0])
		op := ast.OpPlus
		symOp := "++"
		if n.Op == ast.OpPreDec || n.Op == ast.OpPostDec {
			op = ast.OpMinus
			symOp = "--"
		}
		pre := n.Op == ast.OpPreInc || n.Op == ast.OpPreDec
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			one := value.MakeInt(e.Ctx.Arch.Int, 1)
			return kid(e, func(u value.Value) error {
				old, err := e.Rval(u)
				if err != nil {
					return err
				}
				e.Num.Applies++
				upd, err := e.Ctx.Binary(op, old, one)
				if err != nil {
					return err
				}
				if err := e.Ctx.Store(u, upd); err != nil {
					if pv, ok := e.ContainStore(u, err); ok {
						return yield(pv)
					}
					return err
				}
				if pre {
					conv, err := e.Ctx.Convert(upd, u.Type)
					if err != nil {
						return err
					}
					return yield(conv.WithSym(e.PreSym(symOp, u.Sym)))
				}
				return yield(old.WithSym(e.PostSym(u.Sym, symOp)))
			})
		})
	case ast.OpSizeofE:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			var size int
			found := false
			err := kid(e, func(u value.Value) error {
				var serr error
				if size, serr = core.SizeofValue(u); serr != nil {
					return serr
				}
				found = true
				return core.ErrStop
			})
			if err != nil && !errors.Is(err, core.ErrStop) {
				return err
			}
			if !found {
				return fmt.Errorf("duel: sizeof operand produced no values")
			}
			v := value.MakeInt(e.Ctx.Arch.ULong, int64(size))
			v.Sym = e.IntAtom(int64(size))
			return yield(v)
		})
	case ast.OpSizeofT:
		size := int64(n.Type.Size())
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			v := value.MakeInt(e.Ctx.Arch.ULong, size)
			v.Sym = e.IntAtom(size)
			return yield(v)
		})

	// --- C binary operators (single-valued apply, generator operands) ---
	case ast.OpPlus, ast.OpMinus, ast.OpMultiply, ast.OpDivide, ast.OpModulo,
		ast.OpShl, ast.OpShr, ast.OpBitAnd, ast.OpBitOr, ast.OpBitXor,
		ast.OpLt, ast.OpGt, ast.OpLe, ast.OpGe, ast.OpEq, ast.OpNe:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		op := n.Op
		sym := n.Op.Symbol()
		prec := core.OpPrec(n.Op)
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				return right(e, func(v value.Value) error {
					rv, err := e.Rval(v)
					if err != nil {
						return err
					}
					e.Num.Applies++
					w, err := e.Ctx.Binary(op, ru, rv)
					if err != nil {
						return err
					}
					return yield(w.WithSym(e.BinSym(u.Sym, sym, v.Sym, prec)))
				})
			})
		})

	// --- DUEL ?-comparisons: yield the left operand when true ---
	case ast.OpIfLt, ast.OpIfGt, ast.OpIfLe, ast.OpIfGe, ast.OpIfEq, ast.OpIfNe:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		op := n.Op
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				return right(e, func(v value.Value) error {
					rv, err := e.Rval(v)
					if err != nil {
						return err
					}
					e.Num.Applies++
					w, err := e.Ctx.Binary(op, ru, rv)
					if err != nil {
						return err
					}
					if w.IsZero() {
						return nil
					}
					return yield(u)
				})
			})
		})

	// --- logical operators with generator semantics ---
	case ast.OpAndAnd:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if !t {
					return nil
				}
				return right(e, yield)
			})
		})
	case ast.OpOrOr:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if t {
					return yield(u)
				}
				return right(e, yield)
			})
		})

	// --- control expressions ---
	case ast.OpIf, ast.OpCond:
		cond, then := compile(n.Kids[0]), compile(n.Kids[1])
		var els prog
		if len(n.Kids) > 2 {
			els = compile(n.Kids[2])
		}
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return cond(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if t {
					return then(e, yield)
				}
				if els != nil {
					return els(e, yield)
				}
				return nil
			})
		})
	case ast.OpWhile:
		cond, body := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return runLoop(e, yield, cond, nil, body)
		})
	case ast.OpFor:
		var init, cond, post prog
		if n.Kids[0].Op != ast.OpNothing {
			init = compile(n.Kids[0])
		}
		if n.Kids[1].Op != ast.OpNothing {
			cond = compile(n.Kids[1])
		}
		if n.Kids[2].Op != ast.OpNothing {
			post = compile(n.Kids[2])
		}
		body := compile(n.Kids[3])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			if init != nil {
				if err := init(e, drop); err != nil {
					return err
				}
			}
			return runLoop(e, yield, cond, post, body)
		})
	case ast.OpSequence:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			if err := left(e, drop); err != nil {
				return err
			}
			return right(e, yield)
		})
	case ast.OpDiscard:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, drop)
		})
	case ast.OpImply:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(value.Value) error {
				return right(e, yield)
			})
		})
	case ast.OpAlternate:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			if err := left(e, yield); err != nil {
				return err
			}
			return right(e, yield)
		})

	// --- ranges ---
	case ast.OpTo:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				lo, err := e.RangeBound(u)
				if err != nil {
					return err
				}
				return right(e, func(v value.Value) error {
					hi, err := e.RangeBound(v)
					if err != nil {
						return err
					}
					// Per-iteration step, exactly like push: safety limits
					// must fire inside range loops, not only at node entry.
					for i := lo; i <= hi; i++ {
						if err := e.Step(n); err != nil {
							return err
						}
						if err := e.YieldInt(i, yield); err != nil {
							return err
						}
					}
					return nil
				})
			})
		})
	case ast.OpToPrefix:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(v value.Value) error {
				hi, err := e.RangeBound(v)
				if err != nil {
					return err
				}
				for i := int64(0); i < hi; i++ {
					if err := e.Step(n); err != nil {
						return err
					}
					if err := e.YieldInt(i, yield); err != nil {
						return err
					}
				}
				return nil
			})
		})
	case ast.OpToOpen:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				lo, err := e.RangeBound(u)
				if err != nil {
					return err
				}
				for i := lo; ; i++ {
					if i-lo >= int64(e.Opts.MaxOpenRange) {
						return fmt.Errorf("duel: unbounded generator %s.. exceeded %d values", u.Sym.S, e.Opts.MaxOpenRange)
					}
					if err := e.Step(n); err != nil {
						return err
					}
					if err := e.YieldInt(i, yield); err != nil {
						return err
					}
				}
			})
		})

	// --- memory access ---
	case ast.OpIndex:
		if p := compileScan(n); p != nil {
			return p
		}
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				return right(e, func(v value.Value) error {
					rv, err := e.Rval(v)
					if err != nil {
						return err
					}
					e.Num.Applies++
					w, err := e.Ctx.Index(ru, rv)
					if err != nil {
						return err
					}
					return yield(w.WithSym(e.IndexSym(u.Sym, v.Sym)))
				})
			})
		})
	case ast.OpWithDot, ast.OpWithArrow:
		arrow := n.Op == ast.OpWithArrow
		symOp := "."
		if arrow {
			symOp = "->"
		}
		rightKid := n.Kids[1]
		fieldName := rightKid.Name
		left := compile(n.Kids[0])
		right := compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			// C scoping is a session option, so the direct-field decision
			// is per-evaluation; both arms are compiled.
			if e.CDirectField(rightKid) {
				return left(e, func(u value.Value) error {
					w, err := e.DirectField(u, fieldName, arrow)
					if err != nil {
						return err
					}
					return yield(w.WithSym(e.WithOpSym(u.Sym, symOp, w.Sym)))
				})
			}
			return left(e, func(u value.Value) error {
				if err := e.EnterWith(u, arrow); err != nil {
					return err
				}
				werr := right(e, func(w value.Value) error {
					return yield(w.WithSym(e.WithOpSym(u.Sym, symOp, w.Sym)))
				})
				e.ExitWith()
				return werr
			})
		})
	case ast.OpDfs, ast.OpBfs:
		return compileExpand(n)

	// --- sequence manipulators ---
	case ast.OpSelect:
		src, idx := compile(n.Kids[0]), compile(n.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			var idxs []int64
			err := idx(e, func(v value.Value) error {
				rv, err := e.Rval(v)
				if err != nil {
					return err
				}
				if !ctype.IsInteger(ctype.Strip(rv.Type)) {
					return fmt.Errorf("duel: [[...]] index %s is not an integer (%s)", v.Sym.S, rv.Type)
				}
				i := rv.AsInt()
				if i < 0 {
					return fmt.Errorf("duel: [[...]] index %d is negative", i)
				}
				idxs = append(idxs, i)
				return nil
			})
			if err != nil {
				return err
			}
			if len(idxs) == 0 {
				return nil
			}
			need := make(map[int64]bool, len(idxs))
			var maxIdx int64
			for _, i := range idxs {
				need[i] = true
				if i > maxIdx {
					maxIdx = i
				}
			}
			cache := make(map[int64]value.Value, len(need))
			j := int64(0)
			err = src(e, func(u value.Value) error {
				if need[j] {
					cache[j] = u
				}
				j++
				if j > maxIdx {
					return core.ErrStop
				}
				return nil
			})
			if err != nil && !errors.Is(err, core.ErrStop) {
				return err
			}
			for _, i := range idxs {
				u, ok := cache[i]
				if !ok {
					continue // sequence shorter than the index
				}
				if err := yield(u); err != nil {
					return err
				}
			}
			return nil
		})
	case ast.OpUntil:
		src := compile(n.Kids[0])
		stopKid := n.Kids[1]
		stopProg := compile(stopKid)
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			stopped := false
			err := src(e, func(u value.Value) error {
				stop, err := e.UntilStops(u, stopKid, func(*ast.Node) (bool, error) {
					hit := false
					cerr := stopProg(e, func(c value.Value) error {
						t, err := e.Truth(c)
						if err != nil {
							return err
						}
						if t {
							hit = true
							return core.ErrStop
						}
						return nil
					})
					if cerr != nil && !(errors.Is(cerr, core.ErrStop) && hit) {
						return false, cerr
					}
					return hit, nil
				})
				if err != nil {
					return err
				}
				if stop {
					stopped = true
					return core.ErrStop
				}
				return yield(u)
			})
			if err != nil && !(errors.Is(err, core.ErrStop) && stopped) {
				return err
			}
			return nil
		})
	case ast.OpIndexOf:
		kid := compile(n.Kids[0])
		name := n.Name
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			j := int64(0)
			return kid(e, func(u value.Value) error {
				e.SetAlias(name, value.MakeInt(e.Ctx.Arch.Int, j))
				j++
				return yield(u)
			})
		})
	case ast.OpDefine:
		kid := compile(n.Kids[0])
		name := n.Name
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return kid(e, func(u value.Value) error {
				e.SetAlias(name, u)
				return yield(u)
			})
		})

	// --- reductions ---
	case ast.OpCount:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			cnt := int64(0)
			if err := kid(e, func(value.Value) error { cnt++; return nil }); err != nil {
				return err
			}
			return e.YieldInt(cnt, yield)
		})
	case ast.OpSum:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			var isum int64
			var fsum float64
			sawFloat := false
			err := kid(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				if ru.IsPoison() {
					return ru.Err
				}
				if ctype.IsFloat(ru.Type) {
					sawFloat = true
					fsum += ru.AsFloat()
					return nil
				}
				if !ctype.IsInteger(ctype.Strip(ru.Type)) {
					return fmt.Errorf("duel: +/ cannot sum values of type %s", ru.Type)
				}
				isum += ru.AsInt()
				return nil
			})
			if err != nil {
				return err
			}
			if sawFloat {
				f := fsum + float64(isum)
				v := value.MakeFloat(e.Ctx.Arch.Double, f)
				v.Sym = e.Atom(strconv.FormatFloat(f, 'g', -1, 64))
				return yield(v)
			}
			v := value.MakeInt(e.Ctx.Arch.Long, isum)
			v.Sym = e.IntAtom(isum)
			return yield(v)
		})
	case ast.OpAll:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			all := true
			err := kid(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if !t {
					all = false
					return core.ErrStop
				}
				return nil
			})
			if err != nil && !errors.Is(err, core.ErrStop) {
				return err
			}
			return e.YieldBool(all, yield)
		})
	case ast.OpAny:
		kid := compile(n.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			any := false
			err := kid(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if t {
					any = true
					return core.ErrStop
				}
				return nil
			})
			if err != nil && !errors.Is(err, core.ErrStop) {
				return err
			}
			return e.YieldBool(any, yield)
		})

	// --- assignment ---
	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign:
		left, right := compile(n.Kids[0]), compile(n.Kids[1])
		base := core.CompoundBase(n.Op)
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return left(e, func(u value.Value) error {
				if !u.IsLvalue {
					return fmt.Errorf("duel: %s is not an lvalue", u.Sym.S)
				}
				return right(e, func(v value.Value) error {
					rv, err := e.Rval(v)
					if err != nil {
						return err
					}
					if base != ast.OpInvalid {
						old, err := e.Rval(u)
						if err != nil {
							return err
						}
						e.Num.Applies++
						if rv, err = e.Ctx.Binary(base, old, rv); err != nil {
							return err
						}
					}
					e.Num.Applies++
					if err := e.Ctx.Store(u, rv); err != nil {
						if pv, ok := e.ContainStore(u, err); ok {
							return yield(pv)
						}
						return err
					}
					return yield(u)
				})
			})
		})

	default:
		// Declarations (one-shot target allocation tied to the node),
		// target function calls, and any operator this compiler does not
		// know bail to the interpreter. Drive is push itself, including
		// the node-entry step and the "unimplemented operator" error, so
		// the fallback cannot diverge.
		return func(e *core.Env, yield core.EmitFn) error {
			return e.Drive(n, yield)
		}
	}
}

// runLoop mirrors push's evalLoop: cond == nil means no condition check;
// every value of cond must be non-zero to continue; post is discarded.
func runLoop(e *core.Env, yield core.EmitFn, cond, post, body prog) error {
	for iter := 0; ; iter++ {
		if iter >= e.Opts.MaxOpenRange {
			return fmt.Errorf("duel: loop exceeded %d iterations", e.Opts.MaxOpenRange)
		}
		if cond != nil {
			sawZero := false
			err := cond(e, func(u value.Value) error {
				t, err := e.Truth(u)
				if err != nil {
					return err
				}
				if !t {
					sawZero = true
					return core.ErrStop
				}
				return nil
			})
			if err != nil && !(errors.Is(err, core.ErrStop) && sawZero) {
				return err
			}
			if sawZero {
				return nil
			}
		}
		if err := body(e, yield); err != nil {
			return err
		}
		if post != nil {
			if err := post(e, drop); err != nil {
				return err
			}
		}
	}
}
