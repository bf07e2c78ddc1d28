package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinSender locks the calling goroutine to its thread and lowers the
// thread's timer slack to 1 µs, so sleepUntil wakes within tens of
// microseconds. The runtime's own timers wake an otherwise idle process
// only at millisecond granularity, which would show up as generator lag
// on every request. The returned function restores the thread.
func pinSender() func() {
	runtime.LockOSThread()
	// Best effort: with the default slack the sleeps are only coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return func() {
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
		runtime.UnlockOSThread()
	}
}

// cpuTime is the CPU time the process has used, every thread's user and
// system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
