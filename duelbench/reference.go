package main

// The plain-Go reference: every query's expected output, computed from the
// generated inputs (never with DUEL) and compared value by value, symbolic
// expression included. A mismatch is a failed operation.

import (
	"fmt"
	"strconv"
)

// result is one value as the client received it.
type result struct{ sym, text string }

// reference holds what the expected outputs are computed from.
type reference struct {
	arrays map[string][]int32 // "x" (scan), "r" (serve)
	i      int32
	lists  []list
	trees  []tree
	im     *image // node addresses, for pointer-valued results
}

// checker compares outputs against a reference. Its scratch buffers keep a
// check to at most one allocation, so checking adds next to no garbage to
// the measured heap.
// A checker is not safe for concurrent use.
type checker struct {
	ref   *reference
	buf   []byte
	steps []string
	got   []result
	n     int
	err   error
}

func newChecker(ref *reference) *checker { return &checker{ref: ref} }

// check reports the first difference between got and q's expected output.
func (c *checker) check(q *query, got []result) error {
	c.got, c.n, c.err = got, 0, nil
	ref := c.ref
	switch q.kind {
	case kFilterGT, kFilterEQ:
		xs := ref.arrays[q.arr]
		for i := q.a; i <= q.b && c.err == nil; i++ {
			if (q.kind == kFilterGT && xs[i] > q.k) || (q.kind == kFilterEQ && xs[i] == q.k) {
				c.expectElem(q.arr, i, int64(xs[i]))
			}
		}
	case kElem:
		c.expectElem(q.arr, q.a, int64(ref.arrays[q.arr][q.a]))
	case kWrite:
		c.expectElem(q.arr, q.a, int64(q.k))
	case kSum, kCountGT:
		var v int64
		for _, x := range ref.arrays[q.arr][q.a : q.b+1] {
			switch {
			case q.kind == kSum:
				v += int64(x)
			case x > q.k:
				v++
			}
		}
		c.expectNum(v)
	case kLookup:
		for a := q.a; a <= q.b && c.err == nil; a++ {
			c.buf = strconv.AppendInt(c.buf[:0], int64(a), 10)
			c.buf = append(c.buf, "+i"...)
			c.expectBuf(int64(a) + int64(ref.i))
		}
	case kListWalk, kListFind, kListCount, kListIndex:
		c.checkList(q)
	case kTreeWalk:
		c.checkTree(q, "t"+strconv.Itoa(q.obj), ref.trees[q.obj], 0, 0)
	default:
		return fmt.Errorf("no reference for query kind %d", q.kind)
	}
	if c.err == nil && c.n != len(got) {
		c.err = fmt.Errorf("%d values, want %d", len(got), c.n)
	}
	if c.err != nil {
		return fmt.Errorf("%s: %w", q.Text, c.err)
	}
	return nil
}

func (c *checker) checkList(q *query) {
	l := c.ref.lists[q.obj]
	root := "l" + strconv.Itoa(q.obj)
	switch q.kind {
	case kListCount:
		c.expectNum(int64(len(l.Vals)))
	case kListIndex:
		c.steps = c.steps[:0]
		for k := 0; k < q.q; k++ {
			c.steps = append(c.steps, "next")
		}
		c.buf = appendPath(c.buf[:0], root, c.steps)
		c.expectPtr(c.ref.im.listNode(l, q.q))
	default:
		c.steps = c.steps[:0]
		for _, v := range l.Vals {
			if q.kind == kListWalk || v == q.k {
				c.buf = append(appendPath(c.buf[:0], root, c.steps), "->value"...)
				c.expectBuf(int64(v))
				if c.err != nil {
					return
				}
			}
			c.steps = append(c.steps, "next")
		}
	}
}

// checkTree expects the keys above q.k in preorder, the order -->(left,right)
// expands a tree. steps holds the path from the root to node k.
func (c *checker) checkTree(q *query, root string, t tree, k, depth int) {
	if c.err != nil {
		return
	}
	c.steps = c.steps[:depth]
	if key := t.Keys[k]; key > q.k {
		c.buf = append(appendPath(c.buf[:0], root, c.steps), "->key"...)
		c.expectBuf(int64(key))
	}
	if l := t.Left[k]; l >= 0 {
		c.steps = append(c.steps[:depth], "left")
		c.checkTree(q, root, t, l, depth+1)
	}
	if r := t.Right[k]; r >= 0 {
		c.steps = append(c.steps[:depth], "right")
		c.checkTree(q, root, t, r, depth+1)
	}
}

// appendPath renders a --> expansion path the way DUEL prints it: runs of
// three or more identical steps compress to "-->step[[n]]", shorter runs
// print as "->step" each.
func appendPath(b []byte, root string, steps []string) []byte {
	b = append(b, root...)
	for i := 0; i < len(steps); {
		j := i
		for j < len(steps) && steps[j] == steps[i] {
			j++
		}
		if run := j - i; run >= 3 {
			b = append(b, "-->"...)
			b = append(b, steps[i]...)
			b = append(b, "[["...)
			b = strconv.AppendInt(b, int64(run), 10)
			b = append(b, "]]"...)
		} else {
			for ; run > 0; run-- {
				b = append(b, "->"...)
				b = append(b, steps[i]...)
			}
		}
		i = j
	}
	return b
}

// expectElem expects "arr[i] = v".
func (c *checker) expectElem(arr string, i int, v int64) {
	c.buf = append(append(c.buf[:0], arr...), '[')
	c.buf = append(strconv.AppendInt(c.buf, int64(i), 10), ']')
	c.expectBuf(v)
}

// expectNum expects a lone number, whose symbolic form is itself.
func (c *checker) expectNum(v int64) {
	c.buf = strconv.AppendInt(c.buf[:0], v, 10)
	c.expectBuf(v)
}

// expectBuf expects the next value to have symbolic form c.buf and value v.
func (c *checker) expectBuf(v int64) {
	if c.err != nil {
		return
	}
	if c.n >= len(c.got) {
		c.n++
		return
	}
	g := c.got[c.n]
	c.n++
	sym := len(c.buf)
	c.buf = strconv.AppendInt(c.buf, v, 10)
	if g.sym != string(c.buf[:sym]) || g.text != string(c.buf[sym:]) {
		c.err = fmt.Errorf("value %d is %q = %q, want %q = %q", c.n-1, g.sym, g.text, c.buf[:sym], c.buf[sym:])
	}
}

// expectPtr expects the next value to have symbolic form c.buf and to point
// at addr.
func (c *checker) expectPtr(addr uint64) {
	if c.err != nil {
		return
	}
	if c.n >= len(c.got) {
		c.n++
		return
	}
	g := c.got[c.n]
	c.n++
	sym := len(c.buf)
	c.buf = append(c.buf, "0x"...)
	c.buf = strconv.AppendUint(c.buf, addr, 16)
	if g.sym != string(c.buf[:sym]) || g.text != string(c.buf[sym:]) {
		c.err = fmt.Errorf("value %d is %q = %q, want %q = %q", c.n-1, g.sym, g.text, c.buf[:sym], c.buf[sym:])
	}
}

// checkFinal compares an int array read back from the target with want.
func checkFinal(name string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d elements, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}
