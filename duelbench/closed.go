package main

// The closed-loop workloads, scan and walk: one client and one session, the
// next query sent only when the previous one has finished, the way one
// person drives an interactive debugger. After each query the client makes
// one assignment to w, a region no query reads.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/memio"
)

// closedSpec is a closed-loop workload's generated inputs.
type closedSpec struct {
	backend string
	queries []query
	writes  []query
	initW   []int32
	ref     reference // without an image; each setup binds its own
	build   func() (*image, error)
}

func scanSpec(seed uint64) *closedSpec {
	in := genScan(seed)
	return &closedSpec{
		backend: "compiled",
		queries: in.Queries,
		writes:  in.Writes,
		initW:   in.W,
		ref:     reference{arrays: map[string][]int32{"x": in.X}, i: in.I},
		build:   func() (*image, error) { return buildScan(in) },
	}
}

func walkSpec(seed uint64) *closedSpec {
	in := genWalk(seed)
	return &closedSpec{
		backend: "push",
		queries: in.Queries,
		writes:  in.Writes,
		initW:   in.W,
		ref:     reference{lists: in.Lists, trees: in.Trees},
		build:   func() (*image, error) { return buildWalk(in) },
	}
}

// finalW is w after every write of the pool has been applied.
func (sp *closedSpec) finalW() []int32 {
	w := slices.Clone(sp.initW)
	for _, q := range sp.writes {
		w[q.a] = q.k
	}
	return w
}

// closedRun is one set-up session of a closed-loop workload.
type closedRun struct {
	sp    *closedSpec
	im    *image
	ses   *duel.Session
	td    *timedDebugger // nil unless traced
	chk   *checker
	got   []result
	nextW int

	attempted, failed int
	errs              []string
}

// setup builds the target, attaches a session (over the timing wrapper when
// traced) and warms it with every write and the cheapest query of each kind.
func (sp *closedSpec) setup(traced bool) (*closedRun, error) {
	im, err := sp.build()
	if err != nil {
		return nil, err
	}
	var d dbgif.Debugger = im.d
	r := &closedRun{sp: sp, im: im}
	if traced {
		r.td = newTimedDebugger(im.d)
		d = r.td
	}
	opts := duel.DefaultOptions()
	opts.Backend = sp.backend
	if r.ses, err = duel.NewSession(d, opts); err != nil {
		return nil, err
	}
	ref := sp.ref
	ref.im = im
	r.chk = newChecker(&ref)
	warm := map[kind]*query{}
	for i := range sp.queries {
		q := &sp.queries[i]
		if w, ok := warm[q.kind]; !ok || q.b-q.a+q.obj < w.b-w.a+w.obj {
			warm[q.kind] = q
		}
	}
	for i := range sp.writes {
		r.op(&sp.writes[i], nil, 0)
	}
	for _, q := range warm {
		r.op(q, nil, 0)
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.errs[0])
	}
	r.attempted = 0
	return r, nil
}

// opTimes are the instants of one operation.
type opTimes struct {
	start, parsed, first, end time.Time
	values                    int
}

// op runs one query or write, checks its output, and traces it when tr is
// set: a query span with parser and core beneath it, and under core one
// aggregate target span carrying the count and total time of its host reads.
func (r *closedRun) op(q *query, tr *tracer, id int64) opTimes {
	r.attempted++
	var t opTimes
	r.got = r.got[:0]
	var t0 targetSnap
	if tr != nil {
		t0 = r.td.snap()
	}
	t.start = time.Now()
	n, err := r.ses.ParseCached(q.Text)
	t.parsed = time.Now()
	if err == nil {
		err = r.ses.EvalNodeContext(context.Background(), n, func(v duel.Result) error {
			if len(r.got) == 0 {
				t.first = time.Now()
			}
			r.got = append(r.got, result{v.Sym, v.Text})
			return nil
		})
	}
	t.end = time.Now()
	t.values = len(r.got)
	if tr != nil {
		ts := r.td.snap().sub(t0)
		tr.add(id, "query", "", t.start, t.end, 0)
		tr.add(id, "parser", "query", t.start, t.parsed, 0)
		tr.add(id, "core", "query", t.parsed, t.end, 0)
		tr.add(id, "target", "core", t.parsed, t.parsed.Add(time.Duration(ts.busyNanos)), ts.reads)
	}
	if err == nil {
		err = r.chk.check(q, r.got)
	}
	if err != nil {
		r.fail(err)
	}
	return t
}

func (r *closedRun) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// closedStats is what one measurement of a closed loop saw.
type closedStats struct {
	// Latencies in ms, one slice per query of the pool (per write text),
	// one entry per pass.
	lat, first, wlat [][]float64
	passes           int
	reads, values    int
	// Time spent in queries, and in queries and writes.
	readTime, opTime time.Duration
	allocs           uint64
	peakMB           float64

	// Traced passes only: counter deltas over the pass.
	tr                               *tracer
	counters                         core.Counters
	mem                              memio.Stats
	target                           targetSnap
	coreAllocs                       uint64
	srcHit, srcMiss, prgHit, prgMiss int64
}

// heapWindow is how many queries one window of the peak heap covers.
// peak_heap_mb is the median of the windows' peaks: whether a collection
// happens to mark at a query's allocation peak is up to timing, so the
// peak of a single window, or of a whole pass, jumps from one to the next;
// the median of more than a hundred windows does not.
const heapWindow = 5

// measurement accumulates a closed loop's passes into its closedStats.
type measurement struct {
	r    *closedRun
	st   *closedStats
	heap *heapSampler
	a0   uint64
	id   int64

	// Traced only: the counters at the start.
	c0                 core.Counters
	m0                 memio.Stats
	t0                 targetSnap
	sh0, sm0, ph0, pm0 int64
}

// begin starts a measurement of r, traced or not.
func (r *closedRun) begin(traced bool) *measurement {
	m := &measurement{r: r, st: &closedStats{
		lat:   make([][]float64, len(r.sp.queries)),
		first: make([][]float64, len(r.sp.queries)),
		wlat:  make([][]float64, len(r.sp.writes)),
	}}
	if traced {
		m.st.tr = newTracer()
		m.c0, m.m0, m.t0 = r.ses.Counters(), r.ses.Mem().Stats(), r.td.snap()
		m.sh0, m.sm0, m.ph0, m.pm0, _ = r.ses.EvalCacheStats()
	}
	m.heap = startHeapSampler()
	m.a0 = allocBytes()
	return m
}

// pass runs one whole pass over the query stream, each query followed by
// one write. Whole passes give every query the same weight in the
// percentiles.
func (m *measurement) pass() {
	r, st := m.r, m.st
	for i := range r.sp.queries {
		q := &r.sp.queries[i]
		m.id++
		var t opTimes
		if st.tr != nil {
			ca := allocBytes()
			t = r.op(q, st.tr, m.id)
			st.coreAllocs += allocBytes() - ca
		} else {
			t = r.op(q, nil, 0)
		}
		lat := t.end.Sub(t.start)
		st.lat[i] = append(st.lat[i], ms(lat))
		if t.values > 0 {
			st.first[i] = append(st.first[i], ms(t.first.Sub(t.start)))
		}
		st.reads++
		st.values += t.values
		st.readTime += lat
		wi := r.nextW % len(r.sp.writes)
		w := r.op(&r.sp.writes[wi], nil, 0)
		r.nextW++
		st.wlat[wi] = append(st.wlat[wi], ms(w.end.Sub(w.start)))
		st.opTime += lat + w.end.Sub(w.start)
		if (i+1)%heapWindow == 0 || i == len(r.sp.queries)-1 {
			m.heap.cut()
		}
	}
	st.passes++
}

// aside runs f between passes, off the books: what it allocates counts
// toward neither alloc_bytes_per_value nor the peak heap.
func (m *measurement) aside(f func()) {
	a := allocBytes()
	f()
	runtime.GC()
	m.a0 += allocBytes() - a
	m.heap.reset()
}

// end stops the measurement and returns what it saw.
func (m *measurement) end() *closedStats {
	r, st := m.r, m.st
	st.allocs = allocBytes() - m.a0
	st.peakMB = m.heap.finish()
	if st.tr != nil {
		st.counters = subCounters(r.ses.Counters(), m.c0)
		st.mem = subMem(r.ses.Mem().Stats(), m.m0)
		st.target = r.td.snap().sub(m.t0)
		sh, sm, ph, pm, _ := r.ses.EvalCacheStats()
		st.srcHit, st.srcMiss, st.prgHit, st.prgMiss = sh-m.sh0, sm-m.sm0, ph-m.ph0, pm-m.pm0
	}
	return st
}

// pooled joins the repeats of every query into one sample. The closed
// loops' percentiles are taken over it: the median query latency is the
// median of every query the run sent, and whole passes give each query the
// same weight in it. On a shared host the speed of a query's repeats
// swings by half as other tenants come and go, in spells of a few seconds;
// a percentile of the pooled sample moves with the share of the run those
// spells cover, while the median of each query's repeats, or the fastest
// of them, jumps between the fast and the slow speed, and a median over
// the pool's queries then rests on the one or two in its middle.
func pooled(reps [][]float64) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r...)
	}
	return out
}

// checkFinalW reads w back from the target's memory and checks it holds
// the last value each write put there.
func (r *closedRun) checkFinalW() {
	r.attempted++
	got, err := readInts(r.im.p, "w")
	if err == nil {
		err = checkFinal("w", got, r.sp.finalW())
	}
	if err != nil {
		r.fail(fmt.Errorf("final image: %w", err))
	}
}

// closedCounts adds a run's operations to the report. On a closed loop
// every failure is a wrong output: each query has one right answer.
func closedCounts(rep *report, r *closedRun) {
	rep.attempted += r.attempted
	rep.failed += r.failed
	rep.wrong += r.failed
	rep.errs = append(rep.errs, r.errs...)
}

func subCounters(a, b core.Counters) core.Counters {
	return core.Counters{
		Lookups: a.Lookups - b.Lookups, Applies: a.Applies - b.Applies, SymOps: a.SymOps - b.SymOps,
		Values: a.Values - b.Values, MemReads: a.MemReads - b.MemReads,
	}
}

func subMem(a, b memio.Stats) memio.Stats {
	return memio.Stats{
		Reads: a.Reads - b.Reads, HostReads: a.HostReads - b.HostReads, HostBytes: a.HostBytes - b.HostBytes,
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		PrefetchStripes: a.PrefetchStripes - b.PrefetchStripes, PrefetchPages: a.PrefetchPages - b.PrefetchPages,
		Transients: a.Transients - b.Transients, Retries: a.Retries - b.Retries,
	}
}

// closedReport turns a closed loop's passes into the result: end-to-end
// metrics from the untraced pass, per-layer ones from the traced pass.
func closedReport(rep *report, r *closedRun, st *closedStats) {
	closedCounts(rep, r)
	if st.tr == nil {
		for _, m := range []struct {
			name string
			reps [][]float64
			p    float64
		}{
			{"query_p50_ms", st.lat, 50}, {"query_p90_ms", st.lat, 90}, {"query_p99_ms", st.lat, 99},
			{"first_value_p50_ms", st.first, 50}, {"first_value_p90_ms", st.first, 90},
			{"write_p50_ms", st.wlat, 50}, {"write_p99_ms", st.wlat, 99},
		} {
			v, n := percentile(pooled(m.reps), m.p)
			rep.pctValue(m.name, v, n)
		}
		rep.detail["passes"] = st.passes
		rep.set("values_per_s", float64(st.values)/st.readTime.Seconds())
		rep.set("max_rate_qps", float64(st.reads)/st.opTime.Seconds())
		rep.set("alloc_bytes_per_value", float64(st.allocs)/float64(st.values))
		rep.set("peak_heap_mb", st.peakMB)
		return
	}
	v := float64(st.values)
	q := float64(st.reads)
	self := st.tr.selfTimes()
	total := float64(self["query"] + self["parser"] + self["core"] + self["target"])
	rep.set("parser.ns_per_query", float64(self["parser"])/q)
	rep.set("parser.share", float64(self["parser"])/total)
	rep.set("core.self_share", float64(self["core"])/total)
	rep.set("target.busy_share", float64(self["target"])/total)
	rep.set("client.self_share", float64(self["query"])/total)
	rep.set("core.eval_ns_per_value", float64(self["core"]+self["target"])/v)
	c := st.counters
	rep.set("core.lookups_per_value", float64(c.Lookups)/v)
	rep.set("core.applies_per_value", float64(c.Applies)/v)
	rep.set("core.memreads_per_value", float64(c.MemReads)/v)
	rep.set("core.symops_per_value", float64(c.SymOps)/v)
	rep.set("core.alloc_bytes_per_value", float64(st.coreAllocs)/v)
	if st.srcHit+st.srcMiss > 0 {
		rep.set("core.src_cache_hit_frac", float64(st.srcHit)/float64(st.srcHit+st.srcMiss))
		rep.set("core.prog_cache_hit_frac", float64(st.prgHit)/float64(st.prgHit+st.prgMiss))
	} else {
		rep.unavailable("core.src_cache_hit_frac", "the "+r.sp.backend+" backend has no source cache")
		rep.unavailable("core.prog_cache_hit_frac", "the "+r.sp.backend+" backend has no program cache")
	}
	m := st.mem
	rep.set("memio.reads_per_value", float64(m.Reads)/v)
	rep.set("memio.host_reads_per_value", float64(m.HostReads)/v)
	rep.set("memio.host_bytes_per_value", float64(m.HostBytes)/v)
	if m.Hits+m.Misses > 0 {
		rep.set("memio.hit_frac", float64(m.Hits)/float64(m.Hits+m.Misses))
	} else {
		rep.unavailable("memio.hit_frac", "no page-cache lookups")
	}
	rep.set("memio.prefetch_stripes_per_query", float64(m.PrefetchStripes)/q)
	rep.set("memio.prefetch_pages_per_query", float64(m.PrefetchPages)/q)
	rep.set("memio.transients", float64(m.Transients))
	rep.set("memio.retries", float64(m.Retries))
	t := st.target
	rep.set("target.host_reads_per_query", float64(t.reads)/q)
	rep.set("target.ns_per_host_read", float64(t.readNanos)/float64(t.reads))
	for _, name := range []string{"serve.", "fleet.", "gen."} {
		rep.unavailableLayer(name, "a closed loop on one session does not use this layer")
	}
}
