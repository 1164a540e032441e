package core_test

import (
	"strings"
	"testing"

	"duel/internal/core"
	_ "duel/internal/core/compiled"
	"duel/internal/ctype"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
)

// TestExpandSymGolden pins the --> path renderer: runs shorter than
// compressAt print expanded, longer ones as "-->field[[n]]", and every
// render counts one SymOp.
func TestExpandSymGolden(t *testing.T) {
	for _, c := range []struct {
		root  value.Sym
		steps string // space-separated fields, root first
		want  string
	}{
		{value.Sym{S: "head", Prec: value.PrecPostfix}, "", "head"},
		{value.Sym{S: "head", Prec: value.PrecPostfix}, "next", "head->next"},
		{value.Sym{S: "head", Prec: value.PrecPostfix}, "next next", "head->next->next"},
		{value.Sym{S: "head", Prec: value.PrecPostfix}, "next next next", "head-->next[[3]]"},
		{value.Sym{S: "head", Prec: value.PrecPostfix}, "next next next next", "head-->next[[4]]"},
		{value.Sym{S: "head", Prec: value.PrecPostfix}, strings.Repeat("next ", 12), "head-->next[[12]]"},
		{value.Sym{S: "t", Prec: value.PrecPostfix}, "left right left right", "t->left->right->left->right"},
		{value.Sym{S: "r", Prec: value.PrecPostfix}, "a a b b b a", "r->a->a-->b[[3]]->a"},
		{value.Sym{S: "r", Prec: value.PrecPostfix}, "a a a b a a a a", "r-->a[[3]]->b-->a[[4]]"},
		{value.Sym{S: "p+1", Prec: value.PrecAdditive}, "next", "(p+1)->next"},
	} {
		e := core.NewEnv(newFake(t), core.DefaultOptions())
		got := core.ExpandSym(e, c.root, strings.Fields(c.steps))
		if got.S != c.want || got.Prec != value.PrecPostfix {
			t.Errorf("%s + [%s]: got %q (prec %d), want %q", c.root.S, c.steps, got.S, got.Prec, c.want)
		}
		if e.Num.SymOps != 1 {
			t.Errorf("%s + [%s]: %d SymOps, want 1", c.root.S, c.steps, e.Num.SymOps)
		}
	}
}

// TestExpandOrderAndSymbols walks a small tree with dfs and bfs on every
// backend, with symbolic values on and off.
//
//	t(1) -> left(2) -> left(4) -> left(6)
//	     -> right(3) -> right(5)
func TestExpandOrderAndSymbols(t *testing.T) {
	f := newFake(t)
	a := f.A
	node := a.NewStruct("tnode", false)
	_ = a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "left", Type: a.Ptr(node)},
		{Name: "right", Type: a.Ptr(node)},
	})
	f.Structs["tnode"] = node
	addr := map[int]uint64{}
	for v := 1; v <= 6; v++ {
		addr[v], _ = f.AllocTargetSpace(node.Size(), node.Align())
		_ = f.PutTargetBytes(addr[v], value.MakeInt(a.Int, int64(v)).Bytes)
	}
	link := func(from int, field string, to int) {
		fd, _ := node.Field(field)
		_ = f.PutTargetBytes(addr[from]+uint64(fd.Off), value.MakePtr(a.Ptr(node), addr[to]).Bytes)
	}
	link(1, "left", 2)
	link(2, "left", 4)
	link(4, "left", 6)
	link(1, "right", 3)
	link(3, "right", 5)
	root := f.MustVar("t", a.Ptr(node))
	_ = f.PutTargetBytes(root.Addr, value.MakePtr(a.Ptr(node), addr[1]).Bytes)

	for _, c := range []struct {
		query string
		want  []string
	}{
		{"t-->(left,right)->value", []string{
			"t->value = 1", "t->left->value = 2", "t->left->left->value = 4",
			"t-->left[[3]]->value = 6", "t->right->value = 3", "t->right->right->value = 5",
		}},
		{"t-->>(left,right)->value", []string{
			"t->value = 1", "t->left->value = 2", "t->right->value = 3",
			"t->left->left->value = 4", "t->right->right->value = 5", "t-->left[[3]]->value = 6",
		}},
	} {
		for _, name := range core.BackendNames() {
			got, err := evalStrings(t, f, name, c.query)
			if err != nil {
				t.Fatalf("[%s] %s: %v", name, c.query, err)
			}
			if strings.Join(got, "|") != strings.Join(c.want, "|") {
				t.Errorf("[%s] %s:\n got %q\nwant %q", name, c.query, got, c.want)
			}
		}
	}

	// Symbolic off: the same values in the same order, with no symbols
	// and no SymOps.
	n, err := parser.Parse("t-->>(left,right)->value", f)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Symbolic = false
	for _, name := range core.BackendNames() {
		b, _ := core.GetBackend(name)
		env := core.NewEnv(f, opts)
		var got []string
		if err := b.Eval(env, n, func(v value.Value) error {
			s, _ := env.FormatScalar(v)
			got = append(got, v.Sym.S+s)
			return nil
		}); err != nil {
			t.Fatalf("[%s] %v", name, err)
		}
		if strings.Join(got, " ") != "1 2 3 4 5 6" || env.Num.SymOps != 0 {
			t.Errorf("[%s] symbolic off: got %q with %d SymOps, want \"1 2 3 4 5 6\" with 0", name, got, env.Num.SymOps)
		}
	}
}
