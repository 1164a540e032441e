package main

import (
	"errors"
	"reflect"
	"testing"

	"duel"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/fakedbg"
	"duel/internal/memio"
)

// TestTimedDebuggerChangesNothing runs the first queries of each workload on
// a session over the bare debugger and on one over the timing wrapper: the
// outputs must be byte-identical and the memio traffic equal.
func TestTimedDebuggerChangesNothing(t *testing.T) {
	serveIn := genServe(5)
	var serveQs []query
	for _, q := range serveIn.serveSteps([]int{64}).step(0) {
		serveQs = append(serveQs, *q)
	}
	for _, tc := range []struct {
		name    string
		backend string
		build   func() (*image, error)
		queries []query
	}{
		{"scan", "compiled", func() (*image, error) { return buildScan(genScan(5)) }, genScan(5).Queries[:12]},
		{"walk", "push", func() (*image, error) { return buildWalk(genWalk(5)) }, genWalk(5).Queries[:12]},
		{"serve", "compiled", func() (*image, error) { return buildServe(serveIn) }, serveQs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs [2][]duel.Result
			var stats [2]memio.Stats
			var td *timedDebugger
			for i := range outs {
				im, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				var d dbgif.Debugger = im.d
				if i == 1 {
					td = newTimedDebugger(im.d)
					d = td
				}
				opts := duel.DefaultOptions()
				opts.Backend = tc.backend
				ses := duel.MustNewSession(d, opts)
				for _, q := range tc.queries {
					rs, err := ses.Eval(q.Text)
					if err != nil {
						t.Fatalf("%s: %v", q.Text, err)
					}
					for _, r := range rs {
						outs[i] = append(outs[i], duel.Result{Sym: r.Sym, Text: r.Text})
					}
				}
				stats[i] = ses.Mem().Stats()
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Error("wrapped session's output differs")
			}
			if stats[0] != stats[1] {
				t.Errorf("memio stats differ:\nbare    %+v\nwrapped %+v", stats[0], stats[1])
			}
			if s := td.snap(); s.reads != stats[1].HostReads || s.readBytes != stats[1].HostBytes {
				t.Errorf("wrapper saw %d reads of %d bytes, memio issued %d of %d", s.reads, s.readBytes, stats[1].HostReads, stats[1].HostBytes)
			}
		})
	}
}

// TestTimedDebuggerForwardsInterfaces pins the optional interfaces through
// the wrapper: capabilities of a read-only substrate, Unwrap, and
// Interrupt/Resume reaching the wrapped accessor.
func TestTimedDebuggerForwardsInterfaces(t *testing.T) {
	f := fakedbg.New(ctype.LP64, 1<<12)
	g := f.MustVar("g", f.A.Int)
	f.ReadOnly = true
	inner := memio.New(f, memio.Config{})
	td := newTimedDebugger(inner)
	if td.Unwrap() != dbgif.Debugger(inner) {
		t.Error("Unwrap does not return the wrapped debugger")
	}
	if td.CanWrite() || td.CanAlloc() || td.CanCall() || !dbgif.ReadOnly(td) {
		t.Error("read-only substrate reported capable through the wrapper")
	}
	if !dbgif.CanWrite(newTimedDebugger(fakedbg.New(ctype.LP64, 1<<12))) {
		t.Error("writable substrate reported read-only through the wrapper")
	}
	var _ dbgif.Interrupter = td
	dbgif.Interrupt(td)
	if _, err := td.GetTargetBytes(g.Addr, 4); !errors.Is(err, memio.ErrInterrupted) {
		t.Errorf("read after Interrupt: %v, want ErrInterrupted", err)
	}
	dbgif.Resume(td)
	if _, err := td.GetTargetBytes(g.Addr, 4); err != nil {
		t.Errorf("read after Resume: %v", err)
	}
}
