package main

// Tracing from outside the program: spans recorded around the calls this
// benchmark makes into each layer, and a timing dbgif.Debugger placed
// beneath memio that stands for the target layer.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"duel/internal/dbgif"
)

// timedDebugger counts and times every call that crosses from memio into
// the substrate (internal/debugger over internal/target). It forwards the
// optional capability, wrapper and interrupt interfaces, so the chain above
// it behaves exactly as it would over the bare debugger.
type timedDebugger struct {
	dbgif.Debugger
	reads     atomic.Int64 // GetTargetBytes calls
	readNanos atomic.Int64
	readBytes atomic.Int64
	busyNanos atomic.Int64 // time in every timed call: reads, writes, lookups
}

func newTimedDebugger(d dbgif.Debugger) *timedDebugger { return &timedDebugger{Debugger: d} }

func (t *timedDebugger) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	start := time.Now()
	b, err := t.Debugger.GetTargetBytes(addr, n)
	d := int64(time.Since(start))
	t.reads.Add(1)
	t.readNanos.Add(d)
	t.readBytes.Add(int64(len(b)))
	t.busyNanos.Add(d)
	return b, err
}

func (t *timedDebugger) PutTargetBytes(addr uint64, b []byte) error {
	defer t.time(time.Now())
	return t.Debugger.PutTargetBytes(addr, b)
}

func (t *timedDebugger) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	defer t.time(time.Now())
	return t.Debugger.GetTargetVariable(name)
}

func (t *timedDebugger) FrameVariable(level int, name string) (dbgif.VarInfo, bool) {
	defer t.time(time.Now())
	return t.Debugger.FrameVariable(level, name)
}

func (t *timedDebugger) time(start time.Time) { t.busyNanos.Add(int64(time.Since(start))) }

func (t *timedDebugger) Unwrap() dbgif.Debugger { return t.Debugger }
func (t *timedDebugger) CanWrite() bool         { return dbgif.CanWrite(t.Debugger) }
func (t *timedDebugger) CanAlloc() bool         { return dbgif.CanAlloc(t.Debugger) }
func (t *timedDebugger) CanCall() bool          { return dbgif.CanCall(t.Debugger) }
func (t *timedDebugger) Interrupt()             { dbgif.Interrupt(t.Debugger) }
func (t *timedDebugger) Resume()                { dbgif.Resume(t.Debugger) }

// targetSnap is a reading of a timedDebugger's counters.
type targetSnap struct{ reads, readNanos, readBytes, busyNanos int64 }

func (t *timedDebugger) snap() targetSnap {
	if t == nil {
		return targetSnap{}
	}
	return targetSnap{t.reads.Load(), t.readNanos.Load(), t.readBytes.Load(), t.busyNanos.Load()}
}

func (s targetSnap) sub(o targetSnap) targetSnap {
	return targetSnap{s.reads - o.reads, s.readNanos - o.readNanos, s.readBytes - o.readBytes, s.busyNanos - o.busyNanos}
}

func (s targetSnap) add(o targetSnap) targetSnap {
	return targetSnap{s.reads + o.reads, s.readNanos + o.readNanos, s.readBytes + o.readBytes, s.busyNanos + o.busyNanos}
}

// span is one timed interval at a layer boundary. Spans of one query or
// request share ID; Parent names the enclosing span of the same ID.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // calls folded into an aggregate span
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(id int64, name, parent string, start, end time.Time, count int64) {
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Count: count})
}

// selfTimes sums each span name's self time: its duration minus the time
// its children cover. Children of one span never overlap here, so the
// covered time is the sum of their durations.
func (t *tracer) selfTimes() map[string]int64 {
	type key struct {
		id   int64
		name string
	}
	children := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - children[key{s.ID, s.Name}]
	}
	return self
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
