// Package leakcheck is the goroutine-leak assertion shared by the tests of
// every layer that starts goroutines: evaluation watchdogs, serve workers,
// hedged attempts, stream emitters and fleet replicas. It uses only the
// standard library.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Wait fails t unless the goroutine count settles back to at most before+2
// within 5 s, where before is a runtime.NumGoroutine reading taken before
// the work under test started. The slack of two absorbs goroutines the
// runtime and the testing package start on their own. On failure it dumps
// every goroutine's stack.
func Wait(t testing.TB, before int) {
	t.Helper()
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Check runs fn, then Waits for every goroutine it started to finish.
func Check(t testing.TB, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	Wait(t, before)
}
