package expt

import (
	"fmt"
	"math/rand"
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

// ForEachWorker runs fn(worker, i) for every i in [0, n) on the stealing
// pool (see ForEachWorkerChunked): workers claim contiguous runs of
// `chunk` indices from their own span and steal half of a loaded
// worker's span when theirs drains. The worker id w ∈ [0, Workers())
// lets callers keep per-worker state (one RNG, one arena, one scratch)
// without locks: fn runs concurrently across workers but serially
// within one, and a happens-before edge links consecutive claims of the
// same worker.
//
// All n iterations run regardless of individual failures and the error
// of the lowest failing index is returned. Callers must not let fn's
// result for index i depend on which worker runs it (per-worker state
// is scratch, not schedule) — under that contract, results are
// identical at any worker count and any steal interleaving, which
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

// pspan is one worker's pending index range, packed lo<<32|hi into a
// single CAS word and padded to a cache line so owner claims and steals
// on neighboring workers don't false-share.
type pspan struct {
	v atomic.Uint64
	_ [56]byte
}

func packSpan(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }
func unpackSpan(v uint64) (int, int) {
	return int(v >> 32), int(v & 0xffffffff)
}

// ForEachWorkerChunked is the range-claiming core of the worker pool:
// fn(w, start, end) receives whole contiguous index ranges (at most
// `chunk` wide) instead of single indices, so callers with per-range
// state — the campaign engine's per-worker evals — set it up once per
// claimed range. Scheduling is work-stealing:
//
//   - the index space is split evenly into one contiguous span per
//     worker (the same cache-friendly layout the fixed splitter had);
//   - an owner claims `chunk` indices at a time off the front of its
//     span with a CAS on the packed (lo, hi) word;
//   - a worker whose span drains picks victims in randomized order and
//     steals the upper half of the first non-empty span it wins a CAS
//     on, so stragglers shed load at O(log) steal depth instead of
//     serializing on a global cursor;
//   - termination is a completed-index count: stolen-but-unpublished
//     ranges are invisible to scans, so emptiness of all spans cannot
//     be the exit condition.
//
// The error of the lowest failing index is returned; all ranges run
// regardless. Results must not depend on the claim schedule (see
// ForEachWorker) — the experiment engines uphold that by deriving each
// index's RNG streams from its grid coordinates (gen.SimulationKey),
// never from the chunk shape, the worker id or any pool-level seeding,
// so chunk size and steal interleaving are pure scheduling knobs.
// Steals are counted on expt.pool.steals.
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
	if n >= 1<<31 {
		panic(fmt.Sprintf("expt: %d indices overflow the pool's packed spans", n))
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
	if workers == 1 {
		m.poolActive.Add(1)
		for start := 0; start < n; start += chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			sp := m.poolChunkNs.Start()
			errs[start] = fn(0, start, end)
			sp.End()
			m.poolChunks.Inc()
		}
		m.poolActive.Add(-1)
	} else {
		spans := make([]pspan, workers)
		for w := 0; w < workers; w++ {
			spans[w].v.Store(packSpan(w*n/workers, (w+1)*n/workers))
		}
		var done atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m.poolActive.Add(1)
				defer m.poolActive.Add(-1)
				rng := rand.New(rand.NewSource(int64(w)*0x9e3779b9 + 1))
				for {
					// Drain the local span from the front.
					for {
						v := spans[w].v.Load()
						lo, hi := unpackSpan(v)
						if lo >= hi {
							break
						}
						end := lo + chunk
						if end > hi {
							end = hi
						}
						if !spans[w].v.CompareAndSwap(v, packSpan(end, hi)) {
							continue // lost a race with a thief
						}
						sp := m.poolChunkNs.Start()
						errs[lo] = fn(w, lo, end)
						sp.End()
						m.poolChunks.Inc()
						done.Add(int64(end - lo))
					}
					if done.Load() >= int64(n) {
						return
					}
					// Steal the upper half of the largest remaining span
					// (randomized tie-break via the scan origin): each steal
					// moves the most work available, minimizing steal count.
					// A span needs at least 2 pending indexes to be worth
					// taking — for a 1-wide span the "upper half" rounds to
					// empty, and treating that as a successful steal would
					// spin a thief without ever yielding the processor, which
					// on a single-CPU host starves the owner of the last item
					// for entire preemption slices (a ~100x collapse before
					// this guard existed). Sub-2 stragglers are left to their
					// owner and the thief backs off through Gosched.
					victim, best := -1, 1
					var bv uint64
					off := rng.Intn(workers)
					for i := 0; i < workers; i++ {
						cand := (off + i) % workers
						if cand == w {
							continue
						}
						v := spans[cand].v.Load()
						lo, hi := unpackSpan(v)
						if hi-lo > best {
							victim, best, bv = cand, hi-lo, v
						}
					}
					stole := false
					if victim >= 0 {
						lo, hi := unpackSpan(bv)
						mid := lo + (hi-lo+1)/2 // < hi: the transfer is never empty
						if spans[victim].v.CompareAndSwap(bv, packSpan(lo, mid)) {
							spans[w].v.Store(packSpan(mid, hi))
							m.poolSteals.Inc()
							stole = true
						}
					}
					if !stole {
						if done.Load() >= int64(n) {
							return
						}
						runtime.Gosched()
					}
				}
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

// ForEachWorkerFixed is the pre-stealing scheduler — workers claim
// `chunk`-sized runs off one global atomic cursor — kept as the A/B
// baseline for the pool benchmarks and for callers that want strict
// claim ordering (the cursor hands out ranges in ascending order;
// stealing does not). Same contract as ForEachWorker otherwise.
func ForEachWorkerFixed(n, chunk int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	workers := Workers()
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}
	m := exptView.Get()
	m.poolDispatches.Inc()
	m.poolItems.Add(uint64(n))
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	body := func(w int) {
		m.poolActive.Add(1)
		defer m.poolActive.Add(-1)
		for {
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			sp := m.poolChunkNs.Start()
			for i := start; i < end; i++ {
				errs[i] = fn(w, i)
			}
			sp.End()
			m.poolChunks.Inc()
		}
	}
	if workers == 1 {
		body(0)
	} else {
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
