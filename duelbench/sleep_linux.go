package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The Go timer rounds sub-millisecond sleeps up
// to about a millisecond on an idle Linux host, which would make the
// open-loop generator send in bursts a millisecond late; nanosleep wakes
// within tens of microseconds and blocking the thread costs no CPU.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop sleeps the rest
	}
}
