package duel_test

import (
	"runtime"
	"testing"

	"duel"
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/debugger"
	"duel/internal/duel/value"
	"duel/internal/scenarios"
	"duel/internal/target"
)

// TestExpandScalesLinearly pins --> as linear in the number of nodes it
// visits, on every backend: doubling the structure may at most about
// double the bytes one evaluation allocates. A copied or rescanned path
// makes the ratio about 4. It measures allocation, not wall clock, so it
// reads the same on a loaded host.
func TestExpandScalesLinearly(t *testing.T) {
	cases := []struct {
		name, query string
		build       func(n int) (*debugger.Debugger, error)
	}{
		{"list/values", "head-->next->value", scenarios.BuildLongList},
		{"list/count", "#/head-->next", scenarios.BuildLongList},
		{"comb", "root-->(left,right)->value", buildComb},
	}
	for _, backend := range core.BackendNames() {
		for _, c := range cases {
			t.Run(backend+"/"+c.name, func(t *testing.T) {
				small := allocPerEval(t, c.build, 1000, backend, c.query)
				large := allocPerEval(t, c.build, 2000, backend, c.query)
				r := large / small
				t.Logf("%.0f B at 1000 nodes, %.0f B at 2000: ratio %.2f", small, large, r)
				if r > 2.5 {
					t.Errorf("%s: 2000/1000-node allocation ratio %.2f > 2.5", c.query, r)
				}
			})
		}
	}
}

// allocPerEval builds an n-node target and returns the bytes one
// evaluation of query allocates, averaged over a few runs after a warm-up
// that fills the memory and program caches.
func allocPerEval(t *testing.T, build func(int) (*debugger.Debugger, error), n int, backend, query string) float64 {
	t.Helper()
	d, err := build(n)
	if err != nil {
		t.Fatal(err)
	}
	opts := duel.DefaultOptions()
	opts.Backend = backend
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	node, err := ses.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	eval := func() {
		if err := ses.Backend.Eval(ses.Env, node, func(value.Value) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// buildComb builds "struct tnode { int value; struct tnode *left, *right; }
// *root" as a comb of n nodes: a spine linked through right, each spine
// node with a leaf on its left. A dfs path is a run of rights, then at
// most one left, so its symbol stays short while the depth grows.
func buildComb(n int) (*debugger.Debugger, error) {
	p, err := target.NewProcess(target.Config{Model: 0, DataSize: 1 << 16, HeapSize: 24*n + (1 << 16), StackSize: 1 << 14})
	if err != nil {
		return nil, err
	}
	node := p.DeclareStruct("tnode", false)
	if err := p.Arch.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: p.Arch.Int},
		{Name: "left", Type: p.Arch.Ptr(node)},
		{Name: "right", Type: p.Arch.Ptr(node)},
	}); err != nil {
		return nil, err
	}
	ptr := p.Arch.Ptr(node)
	left, _ := node.Field("left")
	right, _ := node.Field("right")
	root, err := p.DefineGlobal("root", ptr)
	if err != nil {
		return nil, err
	}
	link := root.Addr // where to store the pointer to the next spine node
	for i := 0; i+1 < n; i += 2 {
		spine, err := p.Alloc(node.Size(), node.Align())
		if err != nil {
			return nil, err
		}
		leaf, err := p.Alloc(node.Size(), node.Align())
		if err != nil {
			return nil, err
		}
		for _, w := range []struct {
			addr uint64
			t    ctype.Type
			v    int64
		}{
			{link, ptr, int64(spine)},
			{spine, p.Arch.Int, int64(i)},
			{spine + uint64(left.Off), ptr, int64(leaf)},
			{leaf, p.Arch.Int, int64(i + 1)},
		} {
			if err := p.PokeInt(w.addr, w.t, w.v); err != nil {
				return nil, err
			}
		}
		link = spine + uint64(right.Off)
	}
	return debugger.New(p), nil
}
