package main

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestCheckerFlagsCorruptWord corrupts one word of each closed-loop target
// behind DUEL's back and shows the reference check then fails the query
// that reads it.
func TestCheckerFlagsCorruptWord(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   *closedSpec
		kind kind
		// addr picks the word the query reads.
		addr func(r *closedRun, q *query) uint64
	}{
		{"scan", scanSpec(3), kSum, func(r *closedRun, q *query) uint64 {
			x, _ := r.im.p.Global("x")
			return x.Addr + 4*uint64(q.a)
		}},
		{"walk", walkSpec(3), kListWalk, func(r *closedRun, q *query) uint64 {
			return r.im.listNode(r.sp.ref.lists[q.obj], 0) // node 0's value
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.sp.setup(false)
			if err != nil {
				t.Fatal(err)
			}
			var q *query
			for i := range tc.sp.queries {
				if tc.sp.queries[i].kind == tc.kind {
					q = &tc.sp.queries[i]
					break
				}
			}
			r.op(q, nil, 0)
			if r.failed != 0 {
				t.Fatalf("clean target failed the check: %v", r.errs)
			}
			addr := tc.addr(r, q)
			b, err := r.im.p.Space.Read(addr, 4)
			if err != nil {
				t.Fatal(err)
			}
			word := make([]byte, 4)
			binary.LittleEndian.PutUint32(word, binary.LittleEndian.Uint32(b)+1)
			if err := r.im.p.Space.Write(addr, word); err != nil {
				t.Fatal(err)
			}
			r.op(q, nil, 0)
			if r.failed != 1 {
				t.Fatalf("corrupt word went unnoticed (%d failures)", r.failed)
			}
			if !strings.Contains(r.errs[0], q.Text) {
				t.Errorf("failure %q does not name the query", r.errs[0])
			}
		})
	}
}

// TestWriteLedgerFlagsCorruptReplica shows the serve workload's final-image
// check catches one replica whose w differs from what the writes left.
func TestWriteLedgerFlagsCorruptReplica(t *testing.T) {
	in := genServe(3)
	ref := &reference{arrays: map[string][]int32{"r": in.R}}
	rig, err := setupServe(in, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	ledger := newWriteLedger()
	st := rig.runStep(1000, in.serveSteps([]int{200}).step(0), newChecker(ref), ledger, nil, 0)
	if st.Failed+st.Wrong != 0 {
		t.Fatalf("clean step: %d failed, %d wrong", st.Failed, st.Wrong)
	}
	if err := ledger.check(rig); err != nil {
		t.Fatalf("clean replicas: %v", err)
	}
	w, _ := rig.ims[1].p.Global("w")
	if err := rig.ims[1].p.PokeInt(w.Addr+4*7, rig.ims[1].p.Arch.Int, 12345); err != nil {
		t.Fatal(err)
	}
	if err := ledger.check(rig); err == nil || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("corrupt replica not flagged: %v", err)
	}
}
