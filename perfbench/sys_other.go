//go:build !linux

package main

import "time"

// pinSender is a no-op off Linux, where sleeps use the runtime timers.
func pinSender() func() { return func() {} }

// sleepUntil sleeps until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// cpuTime is not measured off Linux (nor is peak RSS): it reads 0, and
// so does every rate per CPU second.
func cpuTime() time.Duration { return 0 }
