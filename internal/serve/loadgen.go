package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
)

// LoadOptions configures one load-generation run against a running
// ftmc-serve instance.
type LoadOptions struct {
	// Addr is the server base URL (e.g. "http://127.0.0.1:8080").
	Addr string
	// Duration is how long to generate load.
	Duration time.Duration
	// Concurrency is the worker count. In closed-loop mode each worker
	// keeps exactly one request in flight; in open-loop mode the workers
	// jointly drain the arrival schedule.
	Concurrency int
	// Rate selects open-loop mode when > 0: arrival i is due at
	// i/Rate seconds after the start, for every i due within Duration,
	// regardless of response latency — the regime where overload
	// actually builds up (a closed loop self-throttles: it can never
	// drive the server past Concurrency in flight). An arrival whose
	// workers are all busy at its due time is sent late, never dropped,
	// and is timed from its due time, so a stall is charged to every
	// request queued behind it.
	Rate float64
	// Sets is the number of distinct task sets in the request mix; the
	// stream cycles through them uniformly at random, so the expected
	// cache-hit ratio after warmup is roughly 1 - Sets/requests.
	Sets int
	// Seed makes the workload reproducible.
	Seed int64
	// Tenant is sent as X-FTMC-Tenant on every request (empty omits it).
	Tenant string
	// Mode and Test are passed through to every request.
	Mode string
	Test string
	DF   float64
}

// LoadReport is the outcome of one load run. Latency quantiles are
// exact (computed from every recorded sample, not bucketed) and cover
// accepted (HTTP 200) requests; in open-loop mode each latency counts
// from the request's due time, not its send.
type LoadReport struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Cached   int     `json:"cached"`
	Shed     int     `json:"shed"`   // 429 + 503
	Errors   int     `json:"errors"` // transport failures, unexpected statuses
	Seconds  float64 `json:"seconds"`
	// VerdictsPerSec counts accepted verdicts only.
	VerdictsPerSec float64 `json:"verdicts_per_sec"`
	P50Ns          int64   `json:"p50_ns"`
	P90Ns          int64   `json:"p90_ns"`
	P99Ns          int64   `json:"p99_ns"`
}

// RunLoad drives the server. The request corpus is generated with the
// repository's paper-parameter generator, pre-marshaled so the
// measurement loop does no JSON encoding work beyond what a real client
// would.
func RunLoad(o LoadOptions) (LoadReport, error) {
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Sets <= 0 {
		o.Sets = 64
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	bodies, err := loadBodies(o)
	if err != nil {
		return LoadReport{}, err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	url := o.Addr + "/v1/verdict"

	type workerStats struct {
		lat                              []int64
		requests, ok, cached, shed, errs int
	}
	stats := make([]workerStats, o.Concurrency)
	var next atomic.Int64 // open loop: the next unclaimed arrival
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(o.Duration)
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
			st := &stats[w]
			for {
				// due is when the request should go out; latency counts
				// from it.
				due := time.Now()
				if o.Rate > 0 {
					i := next.Add(1) - 1
					at := time.Duration(float64(i) / o.Rate * float64(time.Second))
					if at >= o.Duration {
						return
					}
					due = t0.Add(at)
					time.Sleep(time.Until(due))
				} else if !due.Before(deadline) {
					return
				}
				body := bodies[rng.Intn(len(bodies))]
				st.requests++
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					st.errs++
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				if o.Tenant != "" {
					req.Header.Set("X-FTMC-Tenant", o.Tenant)
				}
				resp, err := client.Do(req)
				if err != nil {
					st.errs++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var v Verdict
					if err := json.NewDecoder(resp.Body).Decode(&v); err == nil && v.Cached {
						st.cached++
					}
					st.ok++
					st.lat = append(st.lat, time.Since(due).Nanoseconds())
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					st.shed++
				default:
					st.errs++
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	r := LoadReport{Seconds: elapsed.Seconds()}
	var lat []int64
	for i := range stats {
		st := &stats[i]
		r.Requests += st.requests
		r.OK += st.ok
		r.Cached += st.cached
		r.Shed += st.shed
		r.Errors += st.errs
		lat = append(lat, st.lat...)
	}
	if r.Seconds > 0 {
		r.VerdictsPerSec = float64(r.OK) / r.Seconds
	}
	r.P50Ns, r.P90Ns, r.P99Ns = ExactQuantiles(lat)
	return r, nil
}

// loadBodies pre-marshals the request corpus.
func loadBodies(o LoadOptions) ([][]byte, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	bodies := make([][]byte, 0, o.Sets)
	for tries := 0; len(bodies) < o.Sets; tries++ {
		if tries > 100*o.Sets {
			return nil, fmt.Errorf("serve: task-set generation kept failing (%d/%d after %d tries)", len(bodies), o.Sets, tries)
		}
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5))
		if err != nil {
			continue
		}
		if len(s.ByClass(criticality.HI)) == 0 || len(s.ByClass(criticality.LO)) == 0 {
			continue
		}
		wire := struct {
			Set  *task.Set `json:"set"`
			Mode string    `json:"mode,omitempty"`
			DF   float64   `json:"df,omitempty"`
			Test string    `json:"test,omitempty"`
		}{Set: s, Mode: o.Mode, DF: o.DF, Test: o.Test}
		b, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// ExactQuantiles returns the exact p50/p90/p99 of the samples (0s when
// empty). Used by the load generator and the serve_throughput bench
// section; exported so both report the same definition.
func ExactQuantiles(ns []int64) (p50, p90, p99 int64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return at(0.50), at(0.90), at(0.99)
}
