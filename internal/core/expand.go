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

// expansion is the traversal state of e1-->e2 (or -->>) for one value of
// e1. Push and compiled drive it through Env.expandEach; machine steps it
// from its per-node state.
type expansion struct {
	e       *Env
	root    string // the root's symbolic value, for the limit error
	prefix  string // the root rendered at postfix precedence
	bfs     bool
	work    []expandItem
	kids    []expandItem // children of the node being visited
	visited map[uint64]bool
	visits  int
	at      *expandPath   // path of the node being visited
	runs    []*expandPath // render scratch
}

// reset starts a traversal from root value u. A NULL or invalid root
// leaves an empty expansion.
func (x *expansion) reset(e *Env, u value.Value, bfs bool) error {
	ru, err := e.rval(u)
	if err != nil {
		return err
	}
	if !ctype.IsPointer(ru.Type) {
		return fmt.Errorf("duel: %s is not a pointer (%s); cannot expand with -->", u.Sym.S, ru.Type)
	}
	*x = expansion{e: e, root: u.Sym.S, bfs: bfs, work: x.work[:0], kids: x.kids[:0], runs: x.runs}
	if e.Opts.Symbolic {
		x.prefix = u.Sym.At(value.PrecPostfix)
	}
	if !e.validPointer(ru) {
		return nil
	}
	if e.Opts.CycleDetect {
		x.visited = map[uint64]bool{ru.AsUint(): true}
	}
	x.work = append(x.work, expandItem{val: ru})
	return nil
}

// next takes the next node to visit — the oldest for bfs, the newest for
// dfs — and returns it carrying its path's symbolic value; ok is false
// once the traversal is done.
func (x *expansion) next() (value.Value, bool, error) {
	if len(x.work) == 0 {
		return value.Value{}, false, nil
	}
	var it expandItem
	if x.bfs {
		it = x.work[0]
		x.work = x.work[1:]
	} else {
		it = x.work[len(x.work)-1]
		x.work = x.work[:len(x.work)-1]
	}
	x.visits++
	if x.visits > x.e.Opts.MaxExpand {
		return value.Value{}, false, &ExpandLimitError{Expr: x.root, Limit: x.e.Opts.MaxExpand}
	}
	x.at = it.path
	return it.val.WithSym(x.sym(it.path)), true, nil
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

// settle queues the visited node's children: in order for bfs, reversed
// for dfs so the first child is visited first (the paper's dfs stacks
// them in reverse).
func (x *expansion) settle() {
	if x.bfs {
		x.work = append(x.work, x.kids...)
	} else {
		for i := len(x.kids) - 1; i >= 0; i-- {
			x.work = append(x.work, x.kids[i])
		}
	}
	x.kids = x.kids[:0]
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
// values, and is yielded after its children are queued. With prefetch
// the struct behind each node is made resident before its fields are
// read.
func (e *Env) expandEach(u value.Value, bfs, prefetch bool, kids func(EmitFn) error, yield EmitFn) error {
	var x expansion
	if err := x.reset(e, u, bfs); err != nil {
		return err
	}
	child := x.addChild
	for {
		cur, ok, err := x.next()
		if err != nil || !ok {
			return err
		}
		if prefetch {
			e.prefetchNode(cur)
		}
		if err := e.enterExpand(cur); err != nil {
			return err
		}
		err = kids(child)
		e.popWith()
		if err != nil {
			return err
		}
		x.settle()
		if err := yield(cur); err != nil {
			return err
		}
	}
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
