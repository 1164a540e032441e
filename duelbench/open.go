package main

// The serve workload: an open loop. One generator goroutine sends requests
// on a fixed schedule, whether or not earlier ones have finished, through a
// fleet.Router to a group of two replicas. Each replica is its own
// serve.Server with one worker, the compiled backend and read batching.
// Every request is timed from when it was due, so a stall is charged to
// every request it delays.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"duel"
	"duel/internal/dbgif"
	"duel/internal/fleet"
	"duel/internal/serve"
)

// The rate ladder, in requests per second, and the latency limit a step
// must meet for 99% of the requests it sends; a failed or shed request
// misses it. serveNominal, the first step, is the rate the latency metrics
// are reported at: low enough that the group runs well below capacity, so
// a host that slows down for a while stretches its latencies instead of
// tipping it into queueing. On a shared 2-CPU host the rate the group
// sustains moves between about 4700/s and 9200/s with the load of the
// host's other tenants, and no run sustained 11500/s. A ladder with steps
// in that band reads a different max_rate_qps from run to run of one build
// (IQR/median 0.31 over five seeds with steps 1.25 apart), so the steps
// skip it: max_rate_qps reads 3000 and moves only when capacity falls
// below 3000/s or rises past 14300/s.
var serveLadder = []int{750, 1500, 3000, 14300}

const (
	serveNominal = 750
	serveLimit   = 25 * time.Millisecond
	// nominalShare is the share of the run the nominal step gets, enough
	// for ten writes beyond the 99th percentile at 30 seconds; the other
	// steps split the rest. A step above nominal that fails is sent once
	// more before the ladder stops: a stall of a shared host can fail one
	// try of a rate the group sustains, an overload fails both.
	nominalShare  = 0.5
	stepTries     = 2
	serveReplicas = 2
	// serveQueueDepth replaces the server's default of two jobs per
	// worker: at that depth a host stall of a millisecond or two sheds
	// requests even at the nominal rate, which measures the host, not the
	// system. At 64 a stall queues, and overload still shows as requests
	// missing the latency limit.
	serveQueueDepth = 64
	serveGroup      = "duel"
	requestDeadline = 40 * serveLimit // bounds a request's life under overload
	// maxLate is how far behind schedule the generator may run (p99) at the
	// nominal rate before the run is invalid: past it, the load is not the
	// load the step names.
	maxLate = serveLimit
	// window is the span of due times one windowed percentile covers, so
	// that a stall of the shared host inflates the windows it falls in and
	// not the median window.
	window = time.Second
)

// serveRig is one set-up group: a target image per replica, the servers and
// the router in front of them.
type serveRig struct {
	ims    []*image
	tds    []*timedDebugger // nil entries unless traced
	srvs   []*serve.Server
	router *fleet.Router
}

func setupServe(in *serveInput, ref *reference, traced bool) (*serveRig, error) {
	g := &serveRig{}
	opts := duel.DefaultOptions()
	opts.Backend = "compiled"
	for i := 0; i < serveReplicas; i++ {
		im, err := buildServe(in)
		if err != nil {
			return nil, err
		}
		g.ims = append(g.ims, im)
	}
	var reps []fleet.Replica
	for i, im := range g.ims {
		var d dbgif.Debugger = im.d
		var td *timedDebugger
		if traced {
			td = newTimedDebugger(im.d)
			d = td
		}
		srv := serve.New(serve.Config{Workers: 1, QueueDepth: serveQueueDepth, Session: opts, Batch: serve.BatchConfig{Enabled: true}})
		srv.Register(serveGroup, d)
		g.tds = append(g.tds, td)
		g.srvs = append(g.srvs, srv)
		reps = append(reps, fleet.Replica{Name: fmt.Sprintf("replica%d", i), Server: srv, Target: serveGroup})
	}
	g.router = fleet.New(fleet.Config{})
	if err := g.router.AddGroup(serveGroup, reps); err != nil {
		g.close()
		return nil, err
	}
	// Warm-up: the most popular reads, one after another, so each replica
	// has its sessions and its hottest programs before the clock starts.
	chk := newChecker(ref)
	for i := 0; i < 32; i++ {
		q := &in.Reads[i]
		got, err := g.submit(q, time.Now().Add(requestDeadline), nil)
		if err == nil {
			err = chk.check(q, got.got)
		}
		if err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return g, nil
}

func (g *serveRig) close() {
	g.router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range g.srvs {
		_ = s.Shutdown(ctx) // nothing is in flight; a timeout leaves nothing to report
	}
}

// reqResult is one request's outcome.
type reqResult struct {
	due, start, first, end time.Time // start/end bracket the Router call
	got                    []result
	err                    error
}

func (g *serveRig) submit(q *query, deadline time.Time, into *reqResult) (*reqResult, error) {
	if into == nil {
		into = &reqResult{}
	}
	into.start = time.Now()
	into.err = g.router.SubmitStream(context.Background(), serveGroup, q.Text, serve.SubmitOptions{Deadline: deadline},
		func(v serve.StreamValue) error {
			if len(into.got) == 0 {
				into.first = time.Now()
			}
			into.got = append(into.got, result{v.Sym, v.Text})
			return nil
		})
	into.end = time.Now()
	return into, into.err
}

// stepStats is what one ladder step saw.
type stepStats struct {
	Rate            int            `json:"rate"`
	Try             int            `json:"try,omitempty"`
	Sent            int            `json:"sent"`
	Within          float64        `json:"within_limit_frac"`
	Failed          int            `json:"failed"`
	Wrong           int            `json:"wrong"`
	P50             float64        `json:"query_p50_ms"`
	P99             float64        `json:"query_p99_ms"`
	LateP99         float64        `json:"gen_late_p99_ms"`
	Inflight        int32          `json:"inflight_max"`
	Backlog         bool           `json:"backlog_grows"`
	Pass            bool           `json:"pass"`
	Errors          map[string]int `json:"errors,omitempty"`
	Seconds         float64        `json:"seconds"`
	lat, wlat, late []float64
	// The same per window of due times, for the nominal step's windowed
	// percentiles.
	winLat, winFirst, winW [][]float64
	winValues              []float64
	values                 int
	allocs                 uint64
	peakMB                 float64
	// Summed request spans (from due) and fleet spans (the Router call).
	requestNanos, fleetNanos int64
}

// runStep sends reqs at rate per second and waits for every one to end.
// Outputs are checked after the step, off the measured path.
func (g *serveRig) runStep(rate int, reqs []*query, chk *checker, w *writeLedger, tr *tracer, id0 int64) *stepStats {
	interval := time.Second / time.Duration(rate)
	res := make([]reqResult, len(reqs))
	inflight := make([]int32, len(reqs))
	var cur atomic.Int32
	var wg sync.WaitGroup
	runtime.GC()
	heap := startHeapSampler()
	a0 := allocBytes()
	// A step has failed once more than 1% of its requests have missed the
	// limit; the generator stops there instead of burying the group under
	// the rest of an overload step.
	var missed atomic.Int64
	maxMissed := int64(len(reqs) / 100)
	sent := len(reqs)
	t0 := time.Now().Add(time.Millisecond)
	win := 0
	for i := range reqs {
		if missed.Load() > maxMissed {
			sent = i
			break
		}
		due := t0.Add(time.Duration(i) * interval)
		sleepUntil(due)
		if w := int(due.Sub(t0) / window); w > win {
			heap.cut()
			win = w
		}
		res[i].due = due
		inflight[i] = cur.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			if _, err := g.submit(reqs[i], r.due.Add(requestDeadline), r); err != nil || r.end.Sub(r.due) > serveLimit {
				missed.Add(1)
			}
			cur.Add(-1)
		}(i)
	}
	sendEnd := time.Now()
	wg.Wait()
	res, inflight = res[:sent], inflight[:sent]
	st := &stepStats{Rate: rate, Sent: sent, Seconds: sendEnd.Sub(t0).Seconds()}
	st.allocs = allocBytes() - a0
	heap.cut()
	st.peakMB = heap.finish()
	nwin := win + 1
	st.winLat, st.winFirst, st.winW = make([][]float64, nwin), make([][]float64, nwin), make([][]float64, nwin)
	st.winValues = make([]float64, nwin)

	within := 0
	for i := range res {
		r := &res[i]
		q := reqs[i]
		lat := r.end.Sub(r.due)
		// Lateness runs from due to the Router call, so it covers the
		// request goroutine's start-up as well as the generator's delay.
		st.late = append(st.late, ms(r.start.Sub(r.due)))
		err := r.err
		if err == nil {
			if err = chk.check(q, r.got); err != nil {
				st.Wrong++
			}
		}
		if q.kind == kWrite {
			w.record(q, err == nil)
		}
		if err != nil {
			st.Failed++
			if st.Errors == nil {
				st.Errors = map[string]int{}
			}
			st.Errors[errClass(err)]++
			continue
		}
		if lat <= serveLimit {
			within++
		}
		w := int(r.due.Sub(t0) / window)
		if q.kind == kWrite {
			st.wlat = append(st.wlat, ms(lat))
			st.winW[w] = append(st.winW[w], ms(lat))
		} else {
			st.lat = append(st.lat, ms(lat))
			st.winLat[w] = append(st.winLat[w], ms(lat))
			st.values += len(r.got)
			st.winValues[w] += float64(len(r.got))
			if len(r.got) > 0 {
				st.winFirst[w] = append(st.winFirst[w], ms(r.first.Sub(r.due)))
			}
		}
		st.requestNanos += int64(lat)
		st.fleetNanos += int64(r.end.Sub(r.start))
		if tr != nil {
			id := id0 + int64(i)
			tr.add(id, "request", "", r.due, r.end, 0)
			tr.add(id, "fleet", "request", r.start, r.end, 0)
		}
	}
	st.Within = float64(within) / float64(len(reqs)) // unsent requests count as misses
	st.P50, _ = percentile(st.lat, 50)
	st.P99, _ = percentile(st.lat, 99)
	st.LateP99, _ = percentile(st.late, 99)
	st.Inflight = slices.Max(inflight)
	st.Backlog = backlogGrows(inflight)
	st.Pass = st.Within >= 0.99 && !st.Backlog
	return st
}

// errClass names a failed request's error for the ladder's detail.
func errClass(err error) string {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return "shed"
	case errors.Is(err, serve.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, fleet.ErrNoReplicaAvailable):
		return "no_replica"
	}
	return "other: " + err.Error()
}

// backlogGrows reports whether the requests in flight at the end of a step
// clearly outnumber those in flight near its start: a queue that grows for
// the whole step.
func backlogGrows(inflight []int32) bool {
	q := len(inflight) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int32) float64 {
		s := 0.0
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(inflight[len(inflight)-q:]) > 2*mean(inflight[:q])+4
}

// writeLedger tracks what every write should have left in w: a write that
// succeeded must be visible on every replica; one that failed (shed under
// overload) may or may not have been applied on each.
type writeLedger struct {
	val map[int]int32
	ok  map[int]bool
}

func newWriteLedger() *writeLedger { return &writeLedger{val: map[int]int32{}, ok: map[int]bool{}} }

func (l *writeLedger) record(q *query, ok bool) {
	l.val[q.a] = q.k
	l.ok[q.a] = ok
}

// check reads w back from every replica's memory.
func (l *writeLedger) check(g *serveRig) error {
	for ri, im := range g.ims {
		got, err := readInts(im.p, "w")
		if err != nil {
			return err
		}
		for i, v := range got {
			want, written := l.val[i]
			switch {
			case !written && v != 0:
				return fmt.Errorf("replica %d: w[%d] = %d, never written", ri, i, v)
			case written && l.ok[i] && v != want:
				return fmt.Errorf("replica %d: w[%d] = %d, want %d", ri, i, v, want)
			case written && !l.ok[i] && v != want && v != 0:
				return fmt.Errorf("replica %d: w[%d] = %d, want %d or 0", ri, i, v, want)
			}
		}
	}
	return nil
}

// serveCounters sums the replicas' serve.Stats and the target wrappers.
type serveCounters struct {
	srv    serve.Stats
	per    []serve.Stats
	fleet  fleet.Stats
	target targetSnap
}

func (g *serveRig) counters() serveCounters {
	var c serveCounters
	for i, s := range g.srvs {
		st := s.Stats()
		c.per = append(c.per, st)
		c.srv = addServe(c.srv, st, 1)
		c.target = c.target.add(g.tds[i].snap())
	}
	c.fleet = g.router.Stats()
	return c
}

// addServe returns a + sign·b over the counters the report uses.
func addServe(a, b serve.Stats, sign int64) serve.Stats {
	a.Admitted += sign * b.Admitted
	a.Completed += sign * b.Completed
	a.Failed += sign * b.Failed
	a.Shed += sign * b.Shed
	a.Retried += sign * b.Retried
	a.BatchFlushes += sign * b.BatchFlushes
	a.BatchedQueries += sign * b.BatchedQueries
	a.TargetLocks += sign * b.TargetLocks
	a.QueueNanos += sign * b.QueueNanos
	a.EvalNanos += sign * b.EvalNanos
	return a
}

// runServe runs the ladder (untraced) or the nominal rate on an untraced
// and a traced group by turns (per-layer).
func runServe(rep *report, seed uint64, seconds float64, traced bool) error {
	in := genServe(seed)
	ref := &reference{arrays: map[string][]int32{"r": in.R}}
	chk := newChecker(ref)

	if !traced {
		setup := func() (*serveRig, error) { return setupServe(in, ref, false) }
		rig, secs, err := repeatSetup(serveSetups, setup, (*serveRig).close)
		if err != nil {
			return err
		}
		defer rig.close()
		// aside sets up and releases serveSetups more groups between steps,
		// while the measured group is idle.
		aside := func() error {
			for range serveSetups {
				g, sec, err := timeSetup(setup)
				if err != nil {
					return err
				}
				secs = append(secs, sec)
				g.close()
			}
			return nil
		}
		// Each step above nominal has stepTries request streams, so a retry
		// writes to indices no other step wrote.
		counts := []int{int(float64(serveNominal) * seconds * nominalShare)}
		stepSec := seconds * (1 - nominalShare) / float64(len(serveLadder)-1)
		for _, r := range serveLadder[1:] {
			for range stepTries {
				counts = append(counts, int(float64(r)*stepSec))
			}
		}
		steps := in.serveSteps(counts)
		ledger := newWriteLedger()
		nom := rig.runStep(serveNominal, steps.step(0), chk, ledger, nil, 0)
		ladder := []*stepStats{nom}
		rep.attempted += nom.Sent
		rep.failed += nom.Failed
		rep.wrong += nom.Wrong
		if err := checkLate(nom); err != nil {
			return err
		}
		servePercentiles(rep, nom)
		if err := aside(); err != nil {
			return err
		}
		maxRate := 0
		if nom.Pass {
			maxRate = serveNominal
		climb:
			for i, rate := range serveLadder[1:] {
				for try := range stepTries {
					st := rig.runStep(rate, steps.step(1+i*stepTries+try), chk, ledger, nil, 0)
					st.Try = try + 1
					ladder = append(ladder, st)
					rep.wrong += st.Wrong
					if err := aside(); err != nil {
						return err
					}
					if st.Pass {
						maxRate = rate
						continue climb
					}
				}
				break
			}
		}
		rep.set("max_rate_qps", float64(maxRate))
		rep.set("setup_s", median(secs))
		rep.detail["setups"] = len(secs)
		rep.detail["ladder"] = ladder
		rep.attempted++
		if err := ledger.check(rig); err != nil {
			rep.failed++
			rep.wrong++
			rep.errs = append(rep.errs, "final image: "+err.Error())
		}
		return nil
	}

	// Traced: an untraced and a traced group at the nominal rate, taking
	// turns chunk by chunk (and turns at going first), so drift of the host
	// weighs on both sides of the overhead alike.
	const chunkSeconds = 1.5
	chunks := 2 * max(1, int(seconds/(2*chunkSeconds)))
	per := int(float64(serveNominal) * seconds / float64(chunks))
	counts := make([]int, chunks)
	for i := range counts {
		counts[i] = per
	}
	steps := in.serveSteps(counts)
	var rigs [2]*serveRig
	for side, tr := range []bool{false, true} {
		rig, err := setupServe(in, ref, tr)
		if err != nil {
			if side == 1 {
				rigs[0].close()
			}
			return err
		}
		rigs[side] = rig
	}
	defer rigs[0].close()
	defer rigs[1].close()
	ledgers := [2]*writeLedger{newWriteLedger(), newWriteLedger()}
	t := newTracer()
	c0 := rigs[1].counters()
	var done [2][]*stepStats
	for k := range chunks {
		side := k%2 ^ k/2%2
		var tt *tracer
		if side == 1 {
			tt = t
		}
		done[side] = append(done[side], rigs[side].runStep(serveNominal, steps.step(k), chk, ledgers[side], tt, int64(k*per)))
	}
	c1 := rigs[1].counters()
	var p50 [2]float64
	for side := range 2 {
		st := mergeSteps(done[side])
		if err := checkLate(st); err != nil {
			return err
		}
		rep.attempted += st.Sent + 1
		rep.failed += st.Failed
		rep.wrong += st.Wrong
		if err := ledgers[side].check(rigs[side]); err != nil {
			rep.failed++
			rep.wrong++
			rep.errs = append(rep.errs, "final image: "+err.Error())
		}
		p50[side] = st.P50
		if side == 1 {
			rep.tracer = t
			serveLayers(rep, st, c0, c1)
		}
	}
	rep.set("trace.overhead_frac", p50[1]/p50[0]-1)
	return nil
}

// mergeSteps sums steps at one rate into one, over the fields the traced
// report uses.
func mergeSteps(sts []*stepStats) *stepStats {
	m := &stepStats{Rate: sts[0].Rate}
	for _, st := range sts {
		m.Sent += st.Sent
		m.Failed += st.Failed
		m.Wrong += st.Wrong
		m.lat = append(m.lat, st.lat...)
		m.wlat = append(m.wlat, st.wlat...)
		m.late = append(m.late, st.late...)
		m.values += st.values
		m.requestNanos += st.requestNanos
		m.fleetNanos += st.fleetNanos
		m.Inflight = max(m.Inflight, st.Inflight)
	}
	m.P50, _ = percentile(m.lat, 50)
	m.LateP99, _ = percentile(m.late, 99)
	return m
}

// checkLate refuses a nominal step whose generator fell too far behind.
func checkLate(st *stepStats) error {
	if st.LateP99 > ms(maxLate) {
		return fmt.Errorf("generator ran %.2f ms behind schedule (p99) at the nominal rate; the run is invalid", st.LateP99)
	}
	return nil
}

// servePercentiles sets the end-to-end metrics of the nominal step, each
// percentile the median of the step's windows.
func servePercentiles(rep *report, st *stepStats) {
	for _, m := range []struct {
		name string
		wins [][]float64
		p    float64
	}{
		{"query_p50_ms", st.winLat, 50}, {"query_p90_ms", st.winLat, 90}, {"query_p99_ms", st.winLat, 99},
		{"first_value_p50_ms", st.winFirst, 50}, {"first_value_p90_ms", st.winFirst, 90},
		{"write_p50_ms", st.winW, 50}, {"write_p99_ms", st.winW, 99},
	} {
		v, n := windowed(m.wins, m.p)
		rep.pctValue(m.name, v, n)
	}
	// The last window is partial; the full ones give the rate.
	rep.set("values_per_s", median(st.winValues[:max(1, len(st.winValues)-1)])/window.Seconds())
	rep.set("alloc_bytes_per_value", float64(st.allocs)/float64(st.values))
	rep.set("peak_heap_mb", st.peakMB)
	rep.detail["windows"] = len(st.winLat)
}

// serveLayers sets the per-layer metrics of a traced nominal step from the
// spans and the counter deltas c0 → c1. A write runs on both replicas at
// once and both replicas' queue and eval time is subtracted from its one
// Router span, so the fleet figures are slightly low.
func serveLayers(rep *report, st *stepStats, c0, c1 serveCounters) {
	s := addServe(c1.srv, c0.srv, -1)
	t := c1.target.sub(c0.target)
	reqs := float64(len(st.lat) + len(st.wlat))
	total := float64(st.requestNanos)
	fleetSelf := float64(st.fleetNanos) - float64(s.QueueNanos) - float64(s.EvalNanos)
	evalNanos := float64(s.EvalNanos)
	rep.set("client.self_share", float64(st.requestNanos-st.fleetNanos)/total)
	rep.set("serve.queue_share", float64(s.QueueNanos)/total)
	rep.set("fleet.self_share", fleetSelf/total)
	rep.set("core.self_share", (evalNanos-float64(t.busyNanos))/total)
	rep.set("target.busy_share", float64(t.busyNanos)/total)
	rep.set("core.eval_ns_per_value", evalNanos/float64(st.values))
	rep.set("serve.queue_wait_mean_us", float64(s.QueueNanos)/float64(s.Completed)/1e3)
	rep.set("serve.eval_mean_us", evalNanos/float64(s.Completed)/1e3)
	rep.set("serve.batch_fill", float64(s.BatchedQueries)/float64(s.BatchFlushes))
	rep.set("serve.batched_frac", float64(s.BatchedQueries)/float64(s.Admitted))
	rep.set("serve.locks_per_query", float64(s.TargetLocks)/float64(s.Admitted))
	rep.set("serve.shed_frac", float64(s.Shed)/float64(s.Admitted+s.Shed))
	rep.set("serve.retried", float64(s.Retried))
	rep.set("serve.failed", float64(s.Failed))
	rep.set("fleet.route_overhead_mean_us", fleetSelf/reqs/1e3)
	f := c1.fleet
	f0 := c0.fleet
	writes := f.WriteFanouts - f0.WriteFanouts
	lo, hi := math.Inf(1), 0.0
	for i := range c1.per {
		reads := float64(c1.per[i].Admitted - c0.per[i].Admitted - writes)
		lo, hi = min(lo, reads), max(hi, reads)
	}
	rep.set("fleet.read_skew", hi/lo)
	rep.set("fleet.write_fanouts_frac", float64(writes)/float64(f.Admitted-f0.Admitted))
	rep.set("fleet.failovers", float64(f.Failovers-f0.Failovers))
	rep.set("fleet.no_replica", float64(f.NoReplica-f0.NoReplica))
	rep.set("fleet.write_skews", float64(f.WriteSkews-f0.WriteSkews))
	rep.set("gen.late_p99_ms", st.LateP99)
	rep.set("gen.inflight_max", float64(st.Inflight))
	rep.set("target.host_reads_per_query", float64(t.reads)/reqs)
	rep.set("target.ns_per_host_read", float64(t.readNanos)/float64(t.reads))
	rep.unavailable("parser.ns_per_query", "parsing happens inside the servers, beneath the Router call")
	rep.unavailable("parser.share", "parsing happens inside the servers, beneath the Router call")
	rep.unavailableLayer("core.", "serve sessions are private to the servers; only their eval time is visible")
	rep.unavailableLayer("memio.", "serve sessions' memio accessors are private to the servers")
}
