package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/faultdbg"
	"duel/internal/leakcheck"
	"duel/internal/memio"
)

// TestServeChaosSoak drives the whole resilience stack at once: two targets
// behind one server, per-session fault plans derived from a pinned seed,
// eight submitters issuing mixed read/write/deadline traffic while target
// "a" storms with transient faults and target "b" drags latency. The storm
// must degrade "a" through brownout into quarantine, hedges must fire on the
// slow path, every error must belong to the resilience vocabulary (no
// panics, no mystery failures), Completed must never exceed Admitted at any
// sampled instant, and once the plans' fault budgets are spent the target
// must recover to healthy through the probe path. The whole test runs under
// leakcheck.Check: a stranded hedge attempt or watchdog is a failure.
func TestServeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	leakcheck.Check(t, func() {
		const seed = 20260808 // pinned: rerun failures byte-for-byte

		fa := buildDebuggee(t)
		fb := buildDebuggee(t)
		srv := New(Config{
			Workers: 8,
			Hedge:   HedgeConfig{Enabled: true, Delay: 200 * time.Microsecond},
			// Batching rides the storm too: hedged queries bypass it, so a
			// slice of the traffic below opts out of hedging to keep the
			// batch path (coalesced admission, shared warm pass, per-member
			// accounting) under the same fault pressure as everything else.
			Batch:  BatchConfig{Enabled: true, BatchSize: 4, MaxWait: 200 * time.Microsecond},
			Health: HealthConfig{ProbeInterval: 25 * time.Millisecond},
		})
		// Target "a": a transient-fault storm. Limit bounds each session's
		// injector so the storm burns itself out mid-soak and recovery is
		// reachable. Target "b": a mild latency drag that keeps hedges
		// winning without failing anything.
		planA := faultdbg.Plan{
			Seed:  seed,
			Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 0.95},
			Limit: 120,
		}.DeriveTarget("a")
		planB := faultdbg.Plan{
			Seed:    seed,
			Rates:   map[faultdbg.Kind]float64{faultdbg.Latency: 0.05},
			Latency: 500 * time.Microsecond,
		}.DeriveTarget("b")
		var lanes atomic.Int64
		srv.RegisterFactory("a", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(fa, planA.Derive(lanes.Add(1))))
		})
		srv.RegisterFactory("b", func() (*duel.Session, error) {
			return duel.NewSession(faultdbg.New(fb, planB.Derive(lanes.Add(1))))
		})

		// The invariant poller: Completed ≤ Admitted at every sampled
		// instant, storm or calm.
		stop := make(chan struct{})
		var violations atomic.Int64
		var poll sync.WaitGroup
		poll.Add(1)
		go func() {
			defer poll.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := srv.Stats(); s.Completed > s.Admitted {
					violations.Add(1)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}()

		// allowed reports whether err belongs to the resilience error
		// vocabulary. Everything else — above all *core.PanicError — is a
		// soak failure.
		allowed := func(err error) bool {
			if err == nil {
				return true
			}
			var pe *core.PanicError
			if errors.As(err, &pe) {
				return false
			}
			for _, want := range []error{
				ErrOverloaded, ErrDraining,
				ErrQuarantined, ErrBrownout, ErrDeadlineExceeded,
			} {
				if errors.Is(err, want) {
					return true
				}
			}
			var ce *core.CanceledError
			var te *core.TimeoutError
			var mf *memio.Fault
			return errors.As(err, &ce) || errors.As(err, &te) ||
				errors.As(err, &mf) || memio.IsRetryExhausted(err)
		}

		reads := []string{"x[..10] >? 3", "x[..10]", "x[0]", "x[5..8]"}
		const goroutines, perG = 8, 100
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					target := "a"
					if (g+i)%2 == 1 {
						target = "b"
					}
					src := reads[i%len(reads)]
					if i%5 == 0 {
						src = "x[1] += 1" // writes flush caches, keeping the dice rolling
					}
					var opt SubmitOptions
					if i%7 == 3 {
						opt.Deadline = time.Now().Add(50 * time.Millisecond)
					}
					if i%3 == 0 {
						opt.Hedge = HedgeOff // this slice rides the batcher
					}
					if _, err := srv.EvalWith(context.Background(), target, src, opt); !allowed(err) {
						t.Errorf("goroutine %d query %d (%s %q): unexpected error class: %v", g, i, target, src, err)
					}
				}
			}(g)
		}
		wg.Wait()

		// The storm must have driven target "a" through the graded states.
		st := srv.Stats()
		if st.Brownouts == 0 {
			t.Error("storm never browned out a target")
		}
		if st.Quarantined == 0 {
			t.Error("storm never quarantined a target")
		}
		if st.Hedged == 0 {
			t.Error("soak issued no hedges")
		}
		if st.BatchedQueries == 0 {
			t.Error("soak batched no queries")
		}
		if st.Completed > st.Admitted {
			t.Errorf("post-storm stats violate the invariant: %+v", st)
		}

		// Recovery: the per-session fault budgets (Limit) are spent or
		// dice-beatable; the probe path must re-admit "a" and serve clean
		// reads again, comfortably within a handful of probe intervals.
		recovered := false
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			_, err := srv.Eval(context.Background(), "a", "x[0]")
			h, herr := srv.TargetHealth("a")
			if herr != nil {
				t.Fatal(herr)
			}
			if err == nil && h == TargetHealthy {
				recovered = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !recovered {
			h, _ := srv.TargetHealth("a")
			t.Fatalf("target a never recovered to healthy (stuck at %v) after the storm", h)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		close(stop)
		poll.Wait()
		if n := violations.Load(); n != 0 {
			t.Fatalf("Completed > Admitted observed %d times during the soak", n)
		}
	})
}
