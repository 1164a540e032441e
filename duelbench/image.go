package main

// Target images, built with the internal/target API from generated inputs.

import (
	"encoding/binary"
	"fmt"

	"duel/internal/ctype"
	"duel/internal/debugger"
	"duel/internal/target"
)

// image is one built target: the process under the debugger, plus the
// addresses the reference needs to predict pointer values.
type image struct {
	d         *debugger.Debugger
	p         *target.Process
	listBlock uint64 // heap address of list node slot 0
	treeBlock uint64 // heap address of tree node slot 0
}

const (
	listNodeSize = 8  // struct node { int value; struct node *next; } (ILP32)
	treeNodeSize = 12 // struct tnode { int key; struct tnode *left, *right; }
)

func newProcess(dataBytes, heapBytes int) (*target.Process, error) {
	return target.NewProcess(target.Config{
		Model:     ctype.ILP32,
		DataSize:  dataBytes + 1<<16,
		HeapSize:  heapBytes + 1<<16,
		StackSize: 1 << 16,
	})
}

// defineInts defines the global "int name[len(vals)]" holding vals.
func defineInts(p *target.Process, name string, vals []int32) error {
	v, err := p.DefineGlobal(name, p.Arch.ArrayOf(p.Arch.Int, len(vals)))
	if err != nil {
		return err
	}
	b := make([]byte, 4*len(vals))
	for i, x := range vals {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return p.Space.Write(v.Addr, b)
}

// readInts reads the global int array name back from the process's memory,
// bypassing DUEL.
func readInts(p *target.Process, name string) ([]int32, error) {
	v, ok := p.Global(name)
	if !ok {
		return nil, fmt.Errorf("no global %q", name)
	}
	b, err := p.Space.Read(v.Addr, v.Type.Size())
	if err != nil {
		return nil, err
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func buildScan(in *scanInput) (*image, error) {
	p, err := newProcess(4*(len(in.X)+len(in.W)+1), 0)
	if err != nil {
		return nil, err
	}
	if err := defineInts(p, "x", in.X); err != nil {
		return nil, err
	}
	if err := defineInts(p, "w", in.W); err != nil {
		return nil, err
	}
	iv, err := p.DefineGlobal("i", p.Arch.Int)
	if err != nil {
		return nil, err
	}
	if err := p.PokeInt(iv.Addr, p.Arch.Int, int64(in.I)); err != nil {
		return nil, err
	}
	return &image{d: debugger.New(p), p: p}, nil
}

func buildServe(in *serveInput) (*image, error) {
	p, err := newProcess(4*(len(in.R)+serveW), 0)
	if err != nil {
		return nil, err
	}
	if err := defineInts(p, "r", in.R); err != nil {
		return nil, err
	}
	if err := defineInts(p, "w", make([]int32, serveW)); err != nil {
		return nil, err
	}
	return &image{d: debugger.New(p), p: p}, nil
}

func buildWalk(in *walkInput) (*image, error) {
	listNodes, treeNodes := 0, 0
	for _, l := range in.Lists {
		listNodes += len(l.Vals)
	}
	for _, t := range in.Trees {
		treeNodes += len(t.Keys)
	}
	p, err := newProcess(4*len(in.W)+4*(len(in.Lists)+len(in.Trees)), listNodes*listNodeSize+treeNodes*treeNodeSize)
	if err != nil {
		return nil, err
	}
	a := p.Arch
	node := p.DeclareStruct("node", false)
	if err := a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	}); err != nil {
		return nil, err
	}
	tnode := p.DeclareStruct("tnode", false)
	if err := a.SetFields(tnode, []ctype.FieldSpec{
		{Name: "key", Type: a.Int},
		{Name: "left", Type: a.Ptr(tnode)},
		{Name: "right", Type: a.Ptr(tnode)},
	}); err != nil {
		return nil, err
	}
	if node.Size() != listNodeSize || tnode.Size() != treeNodeSize {
		return nil, fmt.Errorf("node layout %d/%d bytes, want %d/%d", node.Size(), tnode.Size(), listNodeSize, treeNodeSize)
	}
	im := &image{d: debugger.New(p), p: p}
	if im.listBlock, err = p.Alloc(listNodes*listNodeSize, 4); err != nil {
		return nil, err
	}
	if im.treeBlock, err = p.Alloc(treeNodes*treeNodeSize, 4); err != nil {
		return nil, err
	}

	lb := make([]byte, listNodes*listNodeSize)
	for j, l := range in.Lists {
		for k, v := range l.Vals {
			off := l.Slot[k] * listNodeSize
			binary.LittleEndian.PutUint32(lb[off:], uint32(v))
			if k+1 < len(l.Vals) {
				binary.LittleEndian.PutUint32(lb[off+4:], uint32(im.listNode(l, k+1)))
			}
		}
		g, err := p.DefineGlobal(fmt.Sprintf("l%d", j), a.Ptr(node))
		if err != nil {
			return nil, err
		}
		if err := p.PokeInt(g.Addr, a.Ptr(node), int64(im.listNode(l, 0))); err != nil {
			return nil, err
		}
	}
	if err := p.Space.Write(im.listBlock, lb); err != nil {
		return nil, err
	}

	tb := make([]byte, treeNodes*treeNodeSize)
	for j, t := range in.Trees {
		for k, key := range t.Keys {
			off := t.Slot[k] * treeNodeSize
			binary.LittleEndian.PutUint32(tb[off:], uint32(key))
			if t.Left[k] >= 0 {
				binary.LittleEndian.PutUint32(tb[off+4:], uint32(im.treeNode(t, t.Left[k])))
			}
			if t.Right[k] >= 0 {
				binary.LittleEndian.PutUint32(tb[off+8:], uint32(im.treeNode(t, t.Right[k])))
			}
		}
		g, err := p.DefineGlobal(fmt.Sprintf("t%d", j), a.Ptr(tnode))
		if err != nil {
			return nil, err
		}
		if err := p.PokeInt(g.Addr, a.Ptr(tnode), int64(im.treeNode(t, 0))); err != nil {
			return nil, err
		}
	}
	if err := p.Space.Write(im.treeBlock, tb); err != nil {
		return nil, err
	}
	if err := defineInts(p, "w", in.W); err != nil {
		return nil, err
	}
	return im, nil
}

func (im *image) listNode(l list, k int) uint64 {
	return im.listBlock + uint64(l.Slot[k]*listNodeSize)
}

func (im *image) treeNode(t tree, k int) uint64 {
	return im.treeBlock + uint64(t.Slot[k]*treeNodeSize)
}
