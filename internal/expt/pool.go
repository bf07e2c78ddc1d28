package expt

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workersWarn gates the one-time diagnostic for an unparseable
// FTMC_WORKERS value; the expt.workers.env_invalid counter keeps
// incrementing per dispatch so run manifests show the misconfiguration
// even when stderr is discarded.
var workersWarn sync.Once

// Workers returns the fan-out width of the experiment sweeps: the value
// of the FTMC_WORKERS environment variable when it parses as a positive
// integer, else runtime.NumCPU(). The env override exists for pinning
// reproductions to a fixed width (or to 1 for profiling) without code
// changes; every CLI that sweeps (ftmc-accept, ftmc-sense, ftmc-fms)
// honors it. A set-but-unparseable value falls back to NumCPU, warning
// once on stderr and counting on expt.workers.env_invalid.
func Workers() int {
	if v := os.Getenv("FTMC_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
		exptView.Get().workersBadEnv.Inc()
		workersWarn.Do(func() {
			fmt.Fprintf(os.Stderr,
				"ftmc: ignoring FTMC_WORKERS=%q (want a positive integer); using %d workers\n",
				v, runtime.NumCPU())
		})
	}
	return runtime.NumCPU()
}

// ForEach runs fn(i) for every i in [0, n) across at most Workers()
// goroutines and returns the error of the lowest failing index (nil when
// all succeed). All n iterations run regardless of individual failures,
// so callers can fill per-index result slices and reduce them serially
// afterwards — the idiom that keeps parallel sweeps deterministic: any
// order-sensitive accumulation (Kahan sums, appends) happens in the
// reduction, never in fn.
func ForEach(n int, fn func(i int) error) error {
	return ForEachWorker(n, 1, func(_, i int) error { return fn(i) })
}

// ForEachWorker runs fn(worker, i) for every i in [0, n) on the shared
// pool (see ForEachWorkerChunked): workers claim contiguous runs of
// `chunk` indices off one atomic cursor. The worker id w ∈
// [0, Workers()) lets callers keep per-worker state (one RNG, one
// arena, one scratch) without locks: fn runs concurrently across
// workers but serially within one, and a happens-before edge links
// consecutive claims of the same worker.
//
// All n iterations run regardless of individual failures and the error
// of the lowest failing index is returned. Callers must not let fn's
// result for index i depend on which worker runs it (per-worker state
// is scratch, not schedule) — under that contract, results are
// identical at any worker count and any claim interleaving, which
// TestForEachWorkerInvariance pins.
func ForEachWorker(n, chunk int, fn func(worker, i int) error) error {
	return ForEachWorkerChunked(n, chunk, func(w, start, end int) error {
		var first error // of the lowest failing index; every index runs
		for i := start; i < end; i++ {
			if err := fn(w, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// ForEachWorkerChunked is the range-claiming core of the worker pool:
// fn(w, start, end) receives whole contiguous index ranges (at most
// `chunk` wide) instead of single indices, so callers with per-range
// state — the campaign engine's per-worker evals — set it up once per
// claimed range. Workers claim ranges in ascending order off one
// shared atomic cursor until it passes n; with one worker the same
// loop runs on the caller's goroutine.
//
// The error of the lowest failing index is returned; all ranges run
// regardless. Results must not depend on the claim schedule (see
// ForEachWorker) — the experiment engines uphold that by deriving each
// index's RNG streams from its grid coordinates (gen.SimulationKey),
// never from the chunk shape, the worker id or any pool-level seeding,
// so chunk size and claim interleaving are pure scheduling knobs.
func ForEachWorkerChunked(n, chunk int, fn func(worker, start, end int) error) error {
	return ForEachWorkerChunkedN(0, n, chunk, fn)
}

// ForEachWorkerChunkedN is ForEachWorkerChunked with an explicit worker
// count: workers <= 0 selects Workers() (the FTMC_WORKERS / NumCPU
// default). It exists for callers that sweep the pool width themselves —
// the soak harness (internal/harness) pins the width per sweep to prove
// schedule invariance in-process, without mutating FTMC_WORKERS (a
// process-global environment write would race with concurrent sweeps).
func ForEachWorkerChunkedN(workers, n, chunk int, fn func(worker, start, end int) error) error {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	if workers <= 0 {
		workers = Workers()
	}
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}
	m := exptView.Get()
	m.poolDispatches.Inc()
	m.poolItems.Add(uint64(n))
	errs := make([]error, n) // indexed by range start; ranges are disjoint
	var cursor atomic.Int64
	body := func(w int) {
		m.poolActive.Add(1)
		defer m.poolActive.Add(-1)
		for {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := min(start+chunk, n)
			sp := m.poolChunkNs.Start()
			errs[start] = fn(w, start, end)
			sp.End()
			m.poolChunks.Inc()
		}
	}
	if workers == 1 {
		body(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				body(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
