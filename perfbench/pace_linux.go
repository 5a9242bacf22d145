package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerslack = 29

// spinFor is the last stretch of a wait that waitUntil spins through.
const spinFor = 20 * time.Microsecond

// waitUntil returns at t, or at once if t has passed, and reports how
// long it spun. Go's timers wake up to a millisecond late on Linux,
// which would dominate the latency of 4 KiB requests, so it blocks in
// nanosleep with the thread's timer slack set to 1 ns until spinFor
// before t, then spins. Blocking keeps the CPU free for the runtime's
// GC workers while the server is idle; the short spin never lasts long
// enough for the scheduler to preempt it.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t) - spinFor; d > 0 {
		// The goroutine may run on any thread; setting the slack on
		// each one it sleeps on only makes that thread's timers exact.
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	s := time.Now()
	for time.Now().Before(t) {
	}
	return time.Since(s)
}
