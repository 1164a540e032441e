package core

import (
	"fmt"
	"strconv"
	"strings"

	"duel/internal/ctype"
	"duel/internal/duel/value"
)

// expandPath is one run of a --> path: field taken run times in a row,
// after the runs of parent. Paths are persistent — a child shares every
// run of its parent but the last — so extending one is O(1), and a walk
// of n nodes builds O(n) path nodes whatever the depth.
type expandPath struct {
	parent *expandPath
	field  string
	run    int
}

// push returns p extended by one step through field: the last run grows
// when the field repeats, otherwise a new run is linked.
func (p *expandPath) push(field string) *expandPath {
	if p != nil && p.field == field {
		return &expandPath{parent: p.parent, field: field, run: p.run + 1}
	}
	return &expandPath{parent: p, field: field, run: 1}
}

// compressAt is the shortest run rendered as "-->field[[n]]". The paper
// compresses "->a->a" chains, but its own examples print runs of up to
// three steps expanded, so the threshold here is three — see
// EXPERIMENTS.md T1 notes.
const compressAt = 3

// width is the rendered length of the run.
func (p *expandPath) width() int {
	if p.run >= compressAt {
		return len("-->") + len(p.field) + len("[[") + digits(p.run) + len("]]")
	}
	return p.run * (len("->") + len(p.field))
}

func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// expandItem is one node awaiting a visit in a --> / -->> traversal: its
// pointer rvalue and the path from the root that reached it.
type expandItem struct {
	val  value.Value
	path *expandPath
}

// expansion is the state one Env.expandEach traversal keeps across its
// visits: the rendered root, the visited set, and the path and children
// of the node being visited.
type expansion struct {
	e       *Env
	prefix  string // the root rendered at postfix precedence
	kids    []expandItem
	visited map[uint64]bool
	at      *expandPath   // path of the node being visited
	runs    []*expandPath // render scratch
}

// addChild takes one value of e2 for the node being visited: a valid,
// not yet visited pointer becomes a child one step further down the path;
// NULL and invalid pointers end their branch.
func (x *expansion) addChild(w value.Value) error {
	e := x.e
	rw, err := e.rval(w)
	if err != nil {
		return err
	}
	if !ctype.IsPointer(rw.Type) {
		return fmt.Errorf("duel: --> step %s is not a pointer (%s)", w.Sym.S, rw.Type)
	}
	if !e.validPointer(rw) {
		return nil
	}
	if x.visited != nil {
		a := rw.AsUint()
		if x.visited[a] {
			return nil
		}
		x.visited[a] = true
	}
	var path *expandPath
	if e.Opts.Symbolic {
		path = x.at.push(w.Sym.S)
	}
	x.kids = append(x.kids, expandItem{val: rw, path: path})
	return nil
}

// sym renders the symbolic value of the node at path p: the root, then
// each run as "->field" repeated, or "-->field[[n]]" from compressAt on.
// It costs O(runs) and one allocation of the exact length.
func (x *expansion) sym(p *expandPath) value.Sym {
	if !x.e.Opts.Symbolic {
		return value.Sym{}
	}
	x.e.Num.SymOps++
	if p == nil {
		return value.Sym{S: x.prefix, Prec: value.PrecPostfix}
	}
	runs, n := x.runs[:0], len(x.prefix)
	for q := p; q != nil; q = q.parent {
		runs = append(runs, q)
		n += q.width()
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(x.prefix)
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		if r.run >= compressAt {
			var num [20]byte
			b.WriteString("-->")
			b.WriteString(r.field)
			b.WriteString("[[")
			b.Write(strconv.AppendInt(num[:0], int64(r.run), 10))
			b.WriteString("]]")
			continue
		}
		for k := 0; k < r.run; k++ {
			b.WriteString("->")
			b.WriteString(r.field)
		}
	}
	x.runs = runs[:0]
	return value.Sym{S: b.String(), Prec: value.PrecPostfix}
}

// expandEach runs e1-->e2 (bfs for -->>) from one value u of e1: each
// node is visited under its own scope, where kids generates its e2
// values, and is yielded after its children are queued — in order for
// bfs, reversed for dfs so the first child is visited first (the paper's
// dfs stacks them in reverse). The next node is the oldest queued for bfs,
// the newest for dfs. A NULL or invalid root visits nothing. With prefetch
// the struct behind each node is made resident before its fields are
// read.
func (e *Env) expandEach(u value.Value, bfs, prefetch bool, kids func(EmitFn) error, yield EmitFn) error {
	ru, err := e.rval(u)
	if err != nil {
		return err
	}
	if !ctype.IsPointer(ru.Type) {
		return fmt.Errorf("duel: %s is not a pointer (%s); cannot expand with -->", u.Sym.S, ru.Type)
	}
	if !e.validPointer(ru) {
		return nil
	}
	x := expansion{e: e}
	if e.Opts.Symbolic {
		x.prefix = u.Sym.At(value.PrecPostfix)
	}
	if e.Opts.CycleDetect {
		x.visited = map[uint64]bool{ru.AsUint(): true}
	}
	child := x.addChild
	work := []expandItem{{val: ru}}
	for visits := 1; len(work) > 0; visits++ {
		var it expandItem
		if bfs {
			it, work = work[0], work[1:]
		} else {
			it, work = work[len(work)-1], work[:len(work)-1]
		}
		if visits > e.Opts.MaxExpand {
			return &ExpandLimitError{Expr: u.Sym.S, Limit: e.Opts.MaxExpand}
		}
		x.at = it.path
		cur := it.val.WithSym(x.sym(it.path))
		if prefetch {
			e.prefetchNode(cur)
		}
		if err := e.enterExpand(cur); err != nil {
			return err
		}
		err := kids(child)
		e.popWith()
		if err != nil {
			return err
		}
		if bfs {
			work = append(work, x.kids...)
		} else {
			for i := len(x.kids) - 1; i >= 0; i-- {
				work = append(work, x.kids[i])
			}
		}
		x.kids = x.kids[:0]
		if err := yield(cur); err != nil {
			return err
		}
	}
	return nil
}

// enterExpand opens the scope of one visited node: cur is the pointer
// rvalue carrying the path's symbolic value. The caller pops it after
// generating the node's children.
func (e *Env) enterExpand(cur value.Value) error {
	sv, err := e.Ctx.Deref(cur)
	if err != nil {
		return err
	}
	entry := withEntry{orig: cur}
	if _, ok := ctype.Strip(sv.Type).(*ctype.Struct); ok {
		entry.scope = sv.WithSym(cur.Sym)
		entry.hasScope = true
	}
	e.pushWith(entry)
	return nil
}

// prefetchNode makes the struct behind one visited node resident before
// its fields are read. Prefetch works at page granularity, so when the
// allocator laid list nodes out contiguously one stripe pulls a whole
// page run of neighbors; scattered heaps degrade to one page per node.
func (e *Env) prefetchNode(cur value.Value) {
	elem, ok := ctype.PointerElem(cur.Type)
	if !ok {
		return
	}
	if size := elem.Size(); size > 0 {
		e.Mem.Prefetch(cur.AsUint(), size)
	}
}
