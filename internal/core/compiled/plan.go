// Scan planner: recognizes the flat generator shapes that dominate bulk
// debugging queries — x[a..b] (and therefore x[a..b] op k, whose index kid
// is the fused node) and head-->next traversals — and keeps target memory
// resident ahead of the per-element loads with batched Accessor.Prefetch
// stripes. The planner changes only host traffic: the per-element loop
// below it performs exactly the interpreter's steps, counter bumps, reads
// and error checks, so output and fault behavior stay byte-identical. When
// a shape doesn't qualify (non-pointer base, incomplete element type,
// Options.Eval.Prefetch off), the plan is empty and the loop degrades to
// one element per host crossing, exactly as the interpreter behaves.
package compiled

import (
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// prefetchWindowBytes is how far ahead of the scan loop the planner pulls
// memory per Prefetch call. 16 KiB = 64 default-size pages: large enough to
// amortize the host crossing, small enough to never self-evict within the
// accessor's default 1024-page budget.
const prefetchWindowBytes = 1 << 14

// scanPrefetcher keeps a window of elements resident ahead of a fused
// index-range loop. The zero value is an inert plan (want is a no-op).
type scanPrefetcher struct {
	ok    bool
	base  uint64 // target address of element 0
	size  int64  // element size in bytes
	hi    int64  // last index of the scan (inclusive)
	next  int64  // first index not yet requested
	chunk int64  // elements per Prefetch call
}

// planScan sizes a prefetch plan for indexes [lo, hi] over the scan base
// ru. The plan is empty when prefetching is disabled, the base is not a
// pointer to a complete type, or the range is empty.
func planScan(e *core.Env, ru value.Value, lo, hi int64) scanPrefetcher {
	if !e.Opts.Prefetch || hi < lo || ru.IsPoison() {
		return scanPrefetcher{}
	}
	elem, ok := ctype.PointerElem(ru.Type)
	if !ok {
		return scanPrefetcher{}
	}
	size := int64(elem.Size())
	if size <= 0 {
		return scanPrefetcher{}
	}
	chunk := prefetchWindowBytes / size
	if chunk < 1 {
		chunk = 1
	}
	return scanPrefetcher{ok: true, base: ru.AsUint(), size: size, hi: hi, next: lo, chunk: chunk}
}

// want makes element i's window resident: on reaching the first
// unrequested index, the next chunk is pulled in one batched host
// crossing. Address arithmetic is two's complement, matching Ctx.Index.
func (p *scanPrefetcher) want(e *core.Env, i int64) {
	if !p.ok || i < p.next {
		return
	}
	count := p.chunk
	if rest := p.hi - i + 1; rest < count {
		count = rest
	}
	e.Mem.Prefetch(p.base+uint64(i)*uint64(p.size), int(count*p.size))
	p.next = i + count
}

// compileScan fuses an index node whose subscript is a literal range —
// x[a..b], x[..b] — into a single loop that prefetches ahead of the
// per-element reads. Returns nil when the subscript is not a direct range
// (the generic index compilation applies). The fused loop replays push's
// exact evaluation order: entry step, base values, range-node entry step
// per base value, bound evaluation, then one range step + index apply per
// element.
func compileScan(n *ast.Node) prog {
	rangeNode := n.Kids[1]
	switch rangeNode.Op {
	case ast.OpTo:
		base := compile(n.Kids[0])
		loProg, hiProg := compile(rangeNode.Kids[0]), compile(rangeNode.Kids[1])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return base(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				if err := e.Step(rangeNode); err != nil {
					return err
				}
				return loProg(e, func(lv value.Value) error {
					lo, err := e.RangeBound(lv)
					if err != nil {
						return err
					}
					return hiProg(e, func(hv value.Value) error {
						hi, err := e.RangeBound(hv)
						if err != nil {
							return err
						}
						return scanLoop(e, yield, rangeNode, u, ru, lo, hi)
					})
				})
			})
		})
	case ast.OpToPrefix:
		base := compile(n.Kids[0])
		hiProg := compile(rangeNode.Kids[0])
		return stepped(n, func(e *core.Env, yield core.EmitFn) error {
			return base(e, func(u value.Value) error {
				ru, err := e.Rval(u)
				if err != nil {
					return err
				}
				if err := e.Step(rangeNode); err != nil {
					return err
				}
				return hiProg(e, func(hv value.Value) error {
					hi, err := e.RangeBound(hv)
					if err != nil {
						return err
					}
					return scanLoop(e, yield, rangeNode, u, ru, 0, hi-1)
				})
			})
		})
	}
	return nil
}

// scanLoop enumerates i in [lo, hi], applying Index(ru, i) with the same
// per-iteration step, counters and symbolic composition as the interpreted
// index-over-range, while the prefetcher keeps the window resident.
//
// The loop body is the interpreter's, minus work whose effects cannot be
// observed: the subscript is a non-lvalue scalar, so Rval is an identity
// with no counter bumps and is elided; its bytes are read only by
// Ctx.Index's AsInt before the next iteration, so one little-endian buffer
// is reused instead of a per-element MakeInt allocation; and the two
// symbolic compositions (intAtom, indexSym) are built from a precomputed
// base prefix and the cached integer strings, with the same Options.Symbolic
// gate and the same two SymOps bumps.
func scanLoop(e *core.Env, yield core.EmitFn, rangeNode *ast.Node, u, ru value.Value, lo, hi int64) error {
	pf := planScan(e, ru, lo, hi)
	intT := e.Ctx.Arch.Int
	buf := make([]byte, ctype.Strip(intT).Size())
	symbolic := e.Opts.Symbolic
	var prefix string
	if symbolic {
		prefix = u.Sym.At(value.PrecPostfix) + "["
	}
	for i := lo; i <= hi; i++ {
		if err := e.Step(rangeNode); err != nil {
			return err
		}
		pf.want(e, i)
		for b := range buf {
			buf[b] = byte(uint64(i) >> (8 * b))
		}
		iv := value.Value{Type: intT, Bytes: buf}
		var wSym value.Sym
		if symbolic {
			e.Num.SymOps++
			is := value.Itoa(i)
			iv.Sym = value.Sym{S: is, Prec: value.PrecAtom}
			wSym = e.ScanIndexSym(prefix, is)
		}
		e.Num.Applies++
		w, err := e.Ctx.Index(ru, iv)
		if err != nil {
			return err
		}
		if err := yield(w.WithSym(wSym)); err != nil {
			return err
		}
	}
	return nil
}

// compileExpand compiles e1-->e2 (dfs) and e1-->>e2 (bfs) onto the
// traversal push uses, which prefetches each visited node under
// Options.Prefetch.
func compileExpand(n *ast.Node) prog {
	bfs := n.Op == ast.OpBfs
	root := compile(n.Kids[0])
	child := compile(n.Kids[1])
	return stepped(n, func(e *core.Env, yield core.EmitFn) error {
		kids := func(y core.EmitFn) error { return child(e, y) }
		return root(e, func(u value.Value) error {
			return e.Expand(u, bfs, kids, yield)
		})
	})
}
