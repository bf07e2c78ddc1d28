package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/gen"
)

// Options parameterizes one soak sweep.
type Options struct {
	// Seed is the sweep seed; every run derives its streams from
	// (Seed, Index) via gen.SimulationKey.
	Seed int64
	// Runs is the number of runs; ≤ 0 selects one full pass over the
	// space's cross-product.
	Runs int
	// Workers pins the worker-pool width; ≤ 0 selects expt.Workers()
	// (the FTMC_WORKERS / NumCPU default). The determinism tests sweep
	// this together with Chunk and require identical digests.
	Workers int
	// Chunk is the pool's lease width (indices claimed per CAS); ≤ 0
	// selects 8.
	Chunk int
	// ShardContexts caps the adaptation-shard pool's per-shard context
	// count; ≤ 0 selects the deliberately tiny NewRunEnv default.
	ShardContexts int
	// Space is the sweep cross-product; nil selects DefaultSpace().
	Space *Space
	// Checks are extra invariants evaluated on every run.
	Checks []Check
	// TriageDir, when non-empty, receives one minimized JSON repro
	// record per failing run (capped at MaxFailures).
	TriageDir string
	// MaxFailures caps how many failing runs are kept, shrunk and
	// written; ≤ 0 selects 8. Runs beyond the cap still count in
	// ViolationRuns/PanicRuns.
	MaxFailures int
	// ShrinkBudget caps the shrinker's re-executions per failure; ≤ 0
	// selects the triage default.
	ShrinkBudget int
}

// RunFailure is one failing run of a sweep: the spec as it failed, its
// violations, and — for the first MaxFailures failures — the minimized
// triage record and the path it was written to.
type RunFailure struct {
	Spec       RunSpec       `json:"spec"`
	Violations []Violation   `json:"violations"`
	Record     *TriageRecord `json:"record,omitempty"`
	Path       string        `json:"path,omitempty"`
}

// Result summarizes one sweep.
type Result struct {
	// Runs is the number of runs executed.
	Runs int `json:"runs"`
	// Cells is the size of the swept cross-product.
	Cells int `json:"cells"`
	// Digest is the order-independent-schedule, order-dependent-index
	// fold of every run's outcome digest: equal seeds and run counts
	// must produce equal digests at any worker count and chunk shape.
	Digest uint64 `json:"digest"`
	// ViolationRuns counts runs with at least one violated invariant
	// (PanicRuns is the subset that panicked).
	ViolationRuns int `json:"violation_runs"`
	PanicRuns     int `json:"panic_runs"`
	// Failures holds the kept failing runs, triaged and minimized.
	Failures []RunFailure `json:"failures,omitempty"`
	// ServeCacheHits/Misses/Evictions and ShardContexts report the churn
	// the sweep put on the shared caches — the deep tier asserts the
	// eviction path actually ran.
	ServeCacheHits      uint64 `json:"serve_cache_hits"`
	ServeCacheMisses    uint64 `json:"serve_cache_misses"`
	ServeCacheEvictions uint64 `json:"serve_cache_evictions"`
	ShardContexts       int    `json:"shard_contexts"`
	// Elapsed is the wall-clock sweep duration.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Failed reports whether any run violated any invariant.
func (r Result) Failed() bool { return r.ViolationRuns > 0 }

// String renders the one-line sweep summary.
func (r Result) String() string {
	return fmt.Sprintf("soak: %d runs over %d cells in %v, digest %016x, %d violations (%d panics), serve cache %d/%d/%d hit/miss/evict, %d shard contexts",
		r.Runs, r.Cells, r.Elapsed.Round(time.Millisecond), r.Digest,
		r.ViolationRuns, r.PanicRuns,
		r.ServeCacheHits, r.ServeCacheMisses, r.ServeCacheEvictions, r.ShardContexts)
}

// Soak executes one sweep: Runs specs derived from (Seed, index) over
// the space, in parallel on the worker pool at the requested width
// and lease shape, all sharing one RunEnv. Per-run outcome digests are
// collected into a per-index slice and folded serially afterwards —
// the idiom that makes the sweep digest a pure function of (space,
// seed, runs), which the determinism tests then pin across pool
// shapes. The error is non-nil only for unusable options; invariant
// violations are reported in the Result, not as an error.
func Soak(o Options) (Result, error) {
	space := o.Space
	if space == nil {
		space = DefaultSpace()
	}
	if space.Cells() == 0 {
		return Result{}, fmt.Errorf("harness: empty sweep space")
	}
	runs := o.Runs
	if runs <= 0 {
		runs = space.Cells()
	}
	chunk := o.Chunk
	if chunk <= 0 {
		chunk = 8
	}
	maxFailures := o.MaxFailures
	if maxFailures <= 0 {
		maxFailures = 8
	}

	env := NewRunEnv(o.ShardContexts, o.Checks...)
	defer env.Close()

	start := time.Now()
	digests := make([]uint64, runs)
	var (
		mu   sync.Mutex
		res  Result
		kept []RunFailure
	)
	_ = expt.ForEachWorkerChunkedN(o.Workers, runs, chunk, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			out := Execute(space.SpecAt(o.Seed, i), env)
			digests[i] = out.Digest()
			if len(out.Violations) > 0 {
				mu.Lock()
				res.ViolationRuns++
				for _, v := range out.Violations {
					if v.Invariant == "panic" {
						res.PanicRuns++
						break
					}
				}
				if len(kept) < maxFailures {
					kept = append(kept, RunFailure{Spec: out.Spec, Violations: out.Violations})
				}
				mu.Unlock()
			}
		}
		return nil
	})

	var digest uint64
	for i, d := range digests {
		digest = gen.Mix64(digest ^ gen.Mix64(uint64(i)) ^ d)
	}

	// Triage the kept failures serially: shrink each to a minimized,
	// pinned repro and (optionally) write it out.
	for fi := range kept {
		rec := Triage(kept[fi].Spec, kept[fi].Violations, env, o.ShrinkBudget)
		kept[fi].Record = rec
		if rec != nil && o.TriageDir != "" {
			path, err := WriteRecord(o.TriageDir, rec)
			if err != nil {
				return Result{}, fmt.Errorf("harness: writing triage record: %w", err)
			}
			kept[fi].Path = path
		}
	}

	res.Runs = runs
	res.Cells = space.Cells()
	res.Digest = digest
	res.Failures = kept
	res.ServeCacheHits, res.ServeCacheMisses, res.ServeCacheEvictions, _ = env.Pipeline.CacheStats()
	res.ShardContexts = env.Shards.Contexts()
	res.Elapsed = time.Since(start)
	return res, nil
}
