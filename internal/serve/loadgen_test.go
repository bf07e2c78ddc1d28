package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunLoadOpenLoopChargesStall: against a handler that stalls its
// first request, the open loop still sends every scheduled arrival
// (late, never dropped) and charges the stall to the requests queued
// behind it. With one worker at 100 req/s for 0.5 s, arrival i (due at
// 10i ms) cannot be sent before the 300 ms stall ends, so its latency
// from the due time is at least 300 − 10i ms: the lower bounds put the
// exact p50 at ≥ 60 ms and the p90 at ≥ 260 ms, however the host
// schedules. Timed from the send, both would be near zero.
func TestRunLoadOpenLoopChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()

	rep, err := RunLoad(LoadOptions{
		Addr:        srv.URL,
		Duration:    500 * time.Millisecond,
		Concurrency: 1,
		Rate:        100,
		Sets:        4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const arrivals = 50
	if rep.Requests != arrivals || rep.OK != arrivals || served.Load() != arrivals {
		t.Fatalf("sent %d, answered %d, served %d; want all %d scheduled arrivals", rep.Requests, rep.OK, served.Load(), arrivals)
	}
	if rep.P50Ns < int64(60*time.Millisecond) || rep.P90Ns < int64(260*time.Millisecond) {
		t.Fatalf("p50 %v, p90 %v: the %v stall was not charged to the queued requests",
			time.Duration(rep.P50Ns), time.Duration(rep.P90Ns), stall)
	}
}
