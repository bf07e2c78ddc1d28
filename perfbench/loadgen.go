package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // send time, as an offset from the phase start
	body []byte
}

// shot records what happened to one arrival. Times are offsets from the
// phase start.
type shot struct {
	// ready is when the arrival could first be sent: its due time, or
	// later when every sender was still busy with earlier arrivals.
	ready time.Duration
	sent  time.Duration
	done  time.Duration
	due   time.Duration
	// status is the HTTP status, 0 after a transport error and -1 for an
	// arrival the phase never sent (it was cancelled).
	status int
	resp   []byte
}

// latency is the request's time from its due send time to its answer:
// time spent queued behind earlier requests counts.
func (s shot) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself sent: the delay from the moment
// the arrival was both due and had a free sender to the actual send.
func (s shot) lag() time.Duration { return s.sent - s.ready }

// rtt is the client-side round trip of the request.
func (s shot) rtt() time.Duration { return s.done - s.sent }

// sender issues request i with the given body and returns the HTTP
// status (0 on transport error) and the response body.
type sender func(ctx context.Context, i int, body []byte) (int, []byte)

// openLoop sends every arrival at its due time from `senders`
// goroutines that share the schedule. Arrivals follow the fixed
// schedule whatever the answers do: when every sender is busy, the next
// arrival is sent late — never dropped — and its latency still counts
// from its due time, so a stall is charged to every request queued
// behind it. openLoop returns once every sender has returned; after
// cancellation the unsent arrivals keep status -1.
func openLoop(ctx context.Context, arr []arrival, senders int, send sender) []shot {
	return drive(ctx, arr, senders, 0, true, send)
}

// closedLoop keeps `senders` requests in flight: each sender sends the
// next body as soon as its previous request is answered, until d has
// elapsed. The bodies it did not reach keep status -1.
func closedLoop(ctx context.Context, bodies [][]byte, senders int, d time.Duration, send sender) []shot {
	arr := make([]arrival, len(bodies)) // every arrival due at once
	for i, b := range bodies {
		arr[i].body = b
	}
	return drive(ctx, arr, senders, d, false, send)
}

// drive sends the arrivals from `senders` goroutines, each claiming the
// next unsent arrival, sleeping until its due time and sending it; a
// sender stops claiming once stop (when positive) has elapsed. pin runs
// each sender on its own thread for the sleeps (pinSender); a closed
// loop never sleeps, and a pinned sender would only add a thread switch
// to every answer.
func drive(ctx context.Context, arr []arrival, senders int, stop time.Duration, pin bool, send sender) []shot {
	shots := make([]shot, len(arr))
	for i := range shots {
		shots[i] = shot{due: arr[i].due, status: -1}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if pin {
				defer pinSender()()
			}
			for ctx.Err() == nil && (stop <= 0 || time.Since(start) < stop) {
				i := int(next.Add(1) - 1)
				if i >= len(arr) {
					return
				}
				ready := max(time.Since(start), arr[i].due)
				sleepUntil(start.Add(arr[i].due))
				sent := time.Since(start)
				status, resp := send(ctx, i, arr[i].body)
				s := &shots[i]
				s.ready, s.sent, s.done, s.status, s.resp = ready, sent, time.Since(start), status, resp
			}
		}()
	}
	wg.Wait()
	return shots
}

// schedule spaces n arrivals evenly at rate per second.
func schedule(bodies [][]byte, rate float64) []arrival {
	arr := make([]arrival, len(bodies))
	for i, b := range bodies {
		arr[i] = arrival{due: time.Duration(float64(i) / rate * float64(time.Second)), body: b}
	}
	return arr
}
