package main

// The serve_throughput section measures the internal/serve verdict
// pipeline in process (no HTTP transport, so the cache-vs-analysis
// ratio is not drowned by socket round trips) across four serving
// regimes:
//
//   - cold_cache: every request is a first-contact miss (fresh pipeline
//     per round), analyzed individually;
//   - warm_cache: every request hits the canonical-hash verdict cache;
//   - concurrent_miss: 8 concurrent submitters of all-distinct sets,
//     every request its own analysis;
//   - duplicate_miss: 8 concurrent submitters that each send every set
//     in the same order, so identical misses meet in flight and share
//     one analysis (single-flight) — the section fails unless it counts
//     exactly one analysis per set.
//
// FTMC_WORKERS is pinned to 1 for the whole section (mirroring the
// singleWorker benchmarks), so committed reports compare the regimes at
// fixed parallelism regardless of the host; the section records both
// the pinned width and GOMAXPROCS so reports from different hosts stay
// interpretable. Latency quantiles are exact (serve.ExactQuantiles over
// every recorded call), not log-bucketed.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/safety"
	"repro/internal/serve"
	"repro/internal/task"
)

// ServeRegime is one serving regime's measurement.
type ServeRegime struct {
	Verdicts       int     `json:"verdicts"`
	NsPerVerdict   float64 `json:"ns_per_verdict"`
	VerdictsPerSec float64 `json:"verdicts_per_sec"`
	P50Ns          int64   `json:"p50_ns"`
	P90Ns          int64   `json:"p90_ns"`
	P99Ns          int64   `json:"p99_ns"`
}

// ServeThroughputSection is the report's serve_throughput section.
type ServeThroughputSection struct {
	Concurrency    int         `json:"concurrency"`
	Workers        int         `json:"workers"`
	GOMAXPROCS     int         `json:"gomaxprocs"`
	Sets           int         `json:"sets"`
	ColdCache      ServeRegime `json:"cold_cache"`
	WarmCache      ServeRegime `json:"warm_cache"`
	ConcurrentMiss ServeRegime `json:"concurrent_miss"`
	DuplicateMiss  ServeRegime `json:"duplicate_miss"`
	// DuplicateAnalysesPerSet is the analyses the duplicate_miss regime
	// started per distinct set: 1 when single-flight collapses every
	// group of identical in-flight misses.
	DuplicateAnalysesPerSet float64 `json:"duplicate_analyses_per_set"`
	// WarmSpeedup is cold/warm ns-per-verdict: what the verdict cache
	// buys a resubmitted set.
	WarmSpeedup float64 `json:"warm_speedup"`
}

const (
	serveBenchSets        = 64
	serveBenchConcurrency = 8
	serveBenchRounds      = 8
	serveBenchWarmRounds  = 100
)

// serveBenchCorpus draws the section's request stream: serveBenchSets
// distinct dual-criticality multisets at the campaign's easy operating
// point.
func serveBenchCorpus() ([]serve.Request, error) {
	rng := rand.New(rand.NewSource(2024))
	cfg := safety.DefaultConfig()
	reqs := make([]serve.Request, 0, serveBenchSets)
	for tries := 0; len(reqs) < serveBenchSets; tries++ {
		if tries > 100*serveBenchSets {
			return nil, fmt.Errorf("serve bench corpus generation stalled at %d/%d", len(reqs), serveBenchSets)
		}
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5))
		if err != nil {
			continue
		}
		if len(s.ByClass(criticality.HI)) == 0 || len(s.ByClass(criticality.LO)) == 0 {
			continue
		}
		reqs = append(reqs, serve.Request{
			Tasks:  append([]task.Task(nil), s.Tasks()...),
			Safety: cfg,
			Mode:   safety.Kill,
		})
	}
	return reqs, nil
}

// regimeOf reduces a regime's rounds to its report row. Throughput is
// taken from the best round (the minimum-wall-clock estimator — GC
// pauses and scheduler noise only ever add time), quantiles from every
// recorded call across all rounds.
func regimeOf(lat []int64, best time.Duration, perRound int) ServeRegime {
	r := ServeRegime{Verdicts: len(lat)}
	if len(lat) == 0 || perRound == 0 || best <= 0 {
		return r
	}
	r.NsPerVerdict = float64(best.Nanoseconds()) / float64(perRound)
	r.VerdictsPerSec = float64(perRound) / best.Seconds()
	r.P50Ns, r.P90Ns, r.P99Ns = serve.ExactQuantiles(lat)
	return r
}

// runSequential drives reqs through p one call at a time, appending
// per-call latencies to lat.
func runSequential(p *serve.Pipeline, reqs []serve.Request, lat []int64) ([]int64, error) {
	for i := range reqs {
		t0 := time.Now()
		if _, err := p.Verdict(reqs[i]); err != nil {
			return lat, err
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	return lat, nil
}

// runConcurrent submits reqs from `conc` goroutines (disjoint strides)
// and returns every per-call latency.
func runConcurrent(p *serve.Pipeline, reqs []serve.Request, conc int) ([]int64, error) {
	lats := make([][]int64, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += conc {
				t0 := time.Now()
				if _, err := p.Verdict(reqs[i]); err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	var all []int64
	for w := range lats {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, lats[w]...)
	}
	return all, nil
}

// serveThroughputSection measures the four regimes. Pipelines are
// created per round where cold state is the point (fresh verdict cache
// and adaptation shards), reused where warmth is the point.
func serveThroughputSection() (*ServeThroughputSection, error) {
	// Pin the analysis fan-out like the singleWorker benchmarks do, so
	// the committed row compares regimes, not host core counts.
	oldWorkers, hadWorkers := os.LookupEnv("FTMC_WORKERS")
	os.Setenv("FTMC_WORKERS", "1")
	defer func() {
		if hadWorkers {
			os.Setenv("FTMC_WORKERS", oldWorkers)
		} else {
			os.Unsetenv("FTMC_WORKERS")
		}
	}()

	reqs, err := serveBenchCorpus()
	if err != nil {
		return nil, err
	}
	sec := &ServeThroughputSection{
		Concurrency: serveBenchConcurrency,
		Workers:     1,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Sets:        serveBenchSets,
	}

	// Cold cache: a fresh pipeline per round, sequential distinct sets.
	// Rounds start from a collected heap: the section runs after every
	// other benchmark in the process, and letting accumulated garbage
	// collect mid-round would charge GC pauses to whichever regime is
	// unlucky enough to absorb them.
	var coldLat []int64
	var coldBest time.Duration
	for r := 0; r < serveBenchRounds; r++ {
		runtime.GC()
		p := serve.NewPipeline(serve.Options{})
		t0 := time.Now()
		coldLat, err = runSequential(p, reqs, coldLat)
		if d := time.Since(t0); r == 0 || d < coldBest {
			coldBest = d
		}
		p.Close()
		if err != nil {
			return nil, err
		}
	}
	sec.ColdCache = regimeOf(coldLat, coldBest, serveBenchSets)

	// Warm cache: one pipeline, primed, then pure hits.
	p := serve.NewPipeline(serve.Options{})
	if _, err := runSequential(p, reqs, nil); err != nil {
		p.Close()
		return nil, err
	}
	var warmLat []int64
	var warmBest time.Duration
	for r := 0; r < serveBenchWarmRounds; r++ {
		t0 := time.Now()
		warmLat, err = runSequential(p, reqs, warmLat)
		if d := time.Since(t0); r == 0 || d < warmBest {
			warmBest = d
		}
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	p.Close()
	sec.WarmCache = regimeOf(warmLat, warmBest, serveBenchSets)

	// Concurrent misses: all-distinct sets, then every set from every
	// submitter. Fresh pipelines per round keep each set a true miss,
	// and the two regimes alternate round by round so ambient noise
	// (GC, host jitter) lands on both rather than biasing whichever ran
	// later.
	dup := make([]serve.Request, 0, serveBenchConcurrency*len(reqs))
	for i := range reqs {
		for w := 0; w < serveBenchConcurrency; w++ {
			dup = append(dup, reqs[i]) // runConcurrent strides: one copy per submitter
		}
	}
	missRound := func(rs []serve.Request) ([]int64, time.Duration, uint64, error) {
		runtime.GC()
		rp := serve.NewPipeline(serve.Options{})
		t0 := time.Now()
		rl, err := runConcurrent(rp, rs, serveBenchConcurrency)
		d := time.Since(t0)
		rp.Close()
		_, analyses, _, _ := rp.CacheStats()
		return rl, d, analyses, err
	}
	var conLat, dupLat []int64
	var conBest, dupBest time.Duration
	var dupAnalyses uint64
	for r := 0; r < serveBenchRounds; r++ {
		rl, d, _, err := missRound(reqs)
		if err != nil {
			return nil, err
		}
		conLat = append(conLat, rl...)
		if r == 0 || d < conBest {
			conBest = d
		}
		rl, d, analyses, err := missRound(dup)
		if err != nil {
			return nil, err
		}
		dupLat = append(dupLat, rl...)
		if r == 0 || d < dupBest {
			dupBest = d
		}
		dupAnalyses += analyses
	}
	sec.ConcurrentMiss = regimeOf(conLat, conBest, serveBenchSets)
	sec.DuplicateMiss = regimeOf(dupLat, dupBest, len(dup))
	sec.DuplicateAnalysesPerSet = float64(dupAnalyses) / float64(serveBenchRounds*serveBenchSets)
	if dupAnalyses != serveBenchRounds*serveBenchSets {
		return nil, fmt.Errorf("duplicate_miss ran %d analyses for %d sets; single-flight must run exactly one per set",
			dupAnalyses, serveBenchRounds*serveBenchSets)
	}

	if sec.WarmCache.NsPerVerdict > 0 {
		sec.WarmSpeedup = sec.ColdCache.NsPerVerdict / sec.WarmCache.NsPerVerdict
	}
	return sec, nil
}
