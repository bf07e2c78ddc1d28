// ftmc-bench runs the repository's key performance benchmarks and emits
// a machine-readable JSON report, so kernel regressions show up as a
// number in version control rather than an anecdote. The committed
// BENCH_<date>.json files form the performance history; compare a fresh
// run against the newest one before touching the safety kernel.
//
// Usage:
//
//	ftmc-bench [-out BENCH_<date>.json] [-benchtime 1s] [-v] [-metrics]
//	           [-compare old.json] [-before old.json]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -compare diffs the fresh run against a prior BENCH file: any benchmark
// whose ns/op or allocs/op regressed by more than 20% is printed and the
// process exits with status 2 (the `make bench-compare` gate). Harness
// errors — an unreadable or malformed baseline, a failed write — exit
// with status 1, so CI can tolerate a noisy regression (exit 2) while
// still failing on a broken run. -before records the prior file's
// numbers in the emitted report's before_after section, one entry per
// benchmark common to both runs, so a committed BENCH refresh carries
// its own history.
//
// Every report embeds an obsv.Manifest (toolchain, GOMAXPROCS,
// FTMC_WORKERS resolution, VCS stamp), making each BENCH file a
// self-describing artifact. -metrics additionally enables the
// internal/obsv registry for the run and appends a metrics section —
// the instrument snapshot covering the safety kernel, the FT-S
// searches, the worker pool, the explorer and the simulator.
//
// The report includes the eq. (5) kernel benchmark in both its
// boundary-merge and naive per-point forms and derives their ratio
// (kernel_speedup); the fixed-seed Fig. 3 panel through the pooled
// zero-allocation engine and the original allocating path, pinned to
// FTMC_WORKERS=1, with their wall-clock ratio (fig3_pool_speedup) and
// allocations per evaluated task set; a simulator hyperperiod throughput
// point; end-to-end analysis benchmarks (FMS sweeps, design-space
// exploration); the adaptation cache hit rate observed during the
// run; and the distributed campaign runner at 1, 2 and 4 protocol
// workers (sets/sec, protocol overhead and scale-out factors — the
// distributed_campaign section). FTMC_WORKERS caps the sweep fan-out
// as in the other CLIs.
//
// -cpuprofile / -memprofile write pprof profiles covering the whole
// benchmark run (the heap profile is taken after a final GC).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	ftmc "repro"
	"repro/internal/criticality"
	"repro/internal/explore"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BeforeAfter is one before_after entry: a benchmark's measurement in a
// prior BENCH file (-before) next to this run's, with the ratio.
type BeforeAfter struct {
	BeforeNsPerOp     float64 `json:"before_ns_per_op"`
	AfterNsPerOp      float64 `json:"after_ns_per_op"`
	Speedup           float64 `json:"speedup"`
	BeforeAllocsPerOp int64   `json:"before_allocs_per_op"`
	AfterAllocsPerOp  int64   `json:"after_allocs_per_op"`
}

// Report is the JSON document ftmc-bench writes. The environment
// fields of earlier reports (go_version, goos, workers, ...) live in
// the Manifest now; -compare and -before only read Benchmarks, so old
// BENCH files keep loading.
type Report struct {
	Date       string        `json:"date"`
	Manifest   obsv.Manifest `json:"manifest"`
	Benchtime  string        `json:"benchtime"`
	Benchmarks []BenchResult `json:"benchmarks"`
	// KernelSpeedup is naive/fast ns-per-op of the eq. (5) evaluation.
	KernelSpeedup float64 `json:"kernel_speedup"`
	// Fig3PoolSpeedup is ref/pooled ns-per-op of the fixed-seed Fig. 3
	// panel at FTMC_WORKERS=1 (the pooled Monte-Carlo engine vs the
	// original allocating per-set path).
	Fig3PoolSpeedup float64 `json:"fig3_pool_speedup"`
	// Fig3AllocsPerSetPooled / Fig3AllocsPerSetRef are heap allocations
	// per evaluated task set on the same panel, and Fig3AllocReduction is
	// their ratio (ref/pooled).
	Fig3AllocsPerSetPooled float64 `json:"fig3_allocs_per_set_pooled"`
	Fig3AllocsPerSetRef    float64 `json:"fig3_allocs_per_set_ref"`
	Fig3AllocReduction     float64 `json:"fig3_alloc_reduction"`
	// CampaignSpeedup is per-curve/campaign ns-per-op of the full
	// 4-panel × 2-f Fig. 3 figure at FTMC_WORKERS=1 and equal
	// SetsPerPoint: the shared-workload engine (one draw per (U, set),
	// line-8-first verdicts, single-probe line 4) against eight
	// independent pooled per-curve sweeps.
	CampaignSpeedup float64 `json:"campaign_speedup"`
	// CacheHitRate is the process-wide adaptation-cache hit rate over the
	// whole run.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StealPool compares the work-stealing pool against the retired
	// fixed atomic-cursor scheduler on a skewed synthetic workload.
	StealPool *StealPoolSection `json:"steal_pool,omitempty"`
	// ShardedCache reports the sharded adaptation-cache pool under
	// 8-way concurrent access.
	ShardedCache *ShardedCacheSection `json:"sharded_cache,omitempty"`
	// ServeThroughput reports the verdict pipeline (internal/serve)
	// across the cold-cache, warm-cache, concurrent-miss and
	// duplicate-miss regimes at FTMC_WORKERS=1 (see serve_bench.go).
	ServeThroughput *ServeThroughputSection `json:"serve_throughput,omitempty"`
	// DistributedCampaign reports the lease-sharded campaign runner
	// against the single-process engine: sets/sec at 1, 2 and 4
	// single-threaded protocol workers (see dist_bench.go).
	DistributedCampaign *DistributedCampaignSection `json:"distributed_campaign,omitempty"`
	// BeforeAfter compares this run against the -before baseline, keyed
	// by benchmark name; absent without -before.
	BeforeAfter map[string]BeforeAfter `json:"before_after,omitempty"`
	// Metrics is the internal/obsv instrument snapshot of the run;
	// present only with -metrics.
	Metrics *obsv.Snapshot `json:"metrics,omitempty"`
}

// StealPoolSection compares the stealing scheduler against the fixed
// atomic-cursor baseline (ForEachWorkerFixed) on a workload whose
// per-index cost is skewed the way the campaign's cheap-test-first
// ordering skews set evaluation.
type StealPoolSection struct {
	FixedNsPerOp float64 `json:"fixed_ns_per_op"`
	StealNsPerOp float64 `json:"steal_ns_per_op"`
	Speedup      float64 `json:"speedup"`
}

// ShardedCacheSection reports the CacheShards pool hammered by 8-way
// concurrent Get+bound traffic over a small context universe: the cost
// of one resolve+bound cycle and the pooled caches' memo hit rate.
type ShardedCacheSection struct {
	NsPerGet    float64 `json:"ns_per_get"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	Contexts    int     `json:"contexts"`
}

// loadReport reads a prior BENCH_*.json report.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// benchIndex maps a report's benchmarks by name.
func benchIndex(r Report) map[string]BenchResult {
	idx := make(map[string]BenchResult, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		idx[b.Name] = b
	}
	return idx
}

// regressionTolerance is the -compare gate: a benchmark regresses when
// ns/op or allocs/op grows by more than this fraction over the baseline.
const regressionTolerance = 0.20

// regressions diffs cur against old and returns one message per
// benchmark regressing beyond the tolerance. Alloc counts below the
// baseline+1 are never flagged, so a 0→1 blip on an allocation-free path
// doesn't fail a run on rounding.
func regressions(old, cur Report) []string {
	oldIdx := benchIndex(old)
	var msgs []string
	for _, b := range cur.Benchmarks {
		o, ok := oldIdx[b.Name]
		if !ok {
			continue
		}
		if o.NsPerOp > 0 && b.NsPerOp > o.NsPerOp*(1+regressionTolerance) {
			msgs = append(msgs, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.0f%%)",
				b.Name, o.NsPerOp, b.NsPerOp, 100*(b.NsPerOp/o.NsPerOp-1)))
		}
		if float64(b.AllocsPerOp) > float64(o.AllocsPerOp)*(1+regressionTolerance) && b.AllocsPerOp > o.AllocsPerOp+1 {
			msgs = append(msgs, fmt.Sprintf("%s: allocs/op %d -> %d (+%.0f%%)",
				b.Name, o.AllocsPerOp, b.AllocsPerOp, 100*(float64(b.AllocsPerOp)/float64(o.AllocsPerOp)-1)))
		}
	}
	// Steal-pool parity gate: the stealing scheduler must stay within
	// tolerance of the fixed cursor on the skewed workload. On hosts
	// without real parallelism the steal machinery cannot win, but it
	// must never collapse (the empty-steal spin once cost 100x here).
	if sp := cur.StealPool; sp != nil && sp.FixedNsPerOp > 0 &&
		sp.StealNsPerOp > sp.FixedNsPerOp*(1+regressionTolerance) {
		msgs = append(msgs, fmt.Sprintf("steal_pool: steal %.0f ns/op vs fixed %.0f (%.2fx, tolerance %.2fx)",
			sp.StealNsPerOp, sp.FixedNsPerOp, sp.StealNsPerOp/sp.FixedNsPerOp, 1+regressionTolerance))
	}
	if dc := cur.DistributedCampaign; dc != nil {
		// Wire-byte gate (absolute, host-independent): a binary lease
		// must stay ≥ 5x cheaper than a JSON lease in marginal bytes.
		if w := dc.Wire; w != nil && w.Ratio < 5 {
			msgs = append(msgs, fmt.Sprintf("distributed_campaign.wire: binary lease only %.1fx cheaper than json (%.0f vs %.0f B/lease, want >= 5x)",
				w.Ratio, w.BinaryBytesPerLease, w.JSONBytesPerLease))
		}
		// Scale-out gate (relative, host-aware): 4-worker throughput
		// over the 1-worker distributed baseline must not regress
		// beyond tolerance against the same host's prior report. The
		// ceiling itself is host-dependent — a single-CPU host tops out
		// at parity (see DESIGN.md §12) — which is exactly why this
		// gates the trend, not an absolute factor.
		if oc := old.DistributedCampaign; oc != nil && oc.Speedup4 > 0 &&
			dc.Speedup4 < oc.Speedup4*(1-regressionTolerance) {
			msgs = append(msgs, fmt.Sprintf("distributed_campaign: speedup_4 %.2f -> %.2f (-%.0f%%)",
				oc.Speedup4, dc.Speedup4, 100*(1-dc.Speedup4/oc.Speedup4)))
		}
	}
	return msgs
}

func main() {
	testing.Init() // register the -test.* flags testing.Benchmark reads
	date := time.Now().Format("2006-01-02")
	out := flag.String("out", "BENCH_"+date+".json", "output JSON path (- for stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
	verbose := flag.Bool("v", false, "print each result as it completes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	compare := flag.String("compare", "", "prior BENCH json to diff against; exit 2 on >20% ns/op or allocs/op regression")
	before := flag.String("before", "", "prior BENCH json whose numbers populate the report's before_after section")
	metrics := flag.Bool("metrics", false, "enable the internal metrics registry and append a metrics section to the report")
	soak := flag.Bool("soak", false, "run the invariant soak deep tier (internal/harness) instead of benchmarks; exit 1 on violations")
	soakRuns := flag.Int("soak-runs", 100_000, "soak runs to execute (with -soak)")
	soakSeed := flag.Int64("soak-seed", 1, "soak sweep seed (with -soak)")
	soakTriage := flag.String("soak-triage", "soak-triage", "directory receiving minimized triage repro records (with -soak)")
	soakWorkers := flag.Int("soak-workers", 0, "soak pool width; 0 honors FTMC_WORKERS/NumCPU (with -soak)")
	soakChunk := flag.Int("soak-chunk", 0, "soak pool lease width; 0 selects the harness default (with -soak)")
	flag.Parse()
	if *metrics {
		obsv.SetDefault(obsv.NewRegistry())
	}
	if *soak {
		os.Exit(runSoak(soakConfig{
			runs:      *soakRuns,
			seed:      *soakSeed,
			triageDir: *soakTriage,
			workers:   *soakWorkers,
			chunk:     *soakChunk,
			verbose:   *verbose,
		}))
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
			}
		}()
	}

	rep := Report{
		Date:      date,
		Manifest:  obsv.NewManifest(),
		Benchtime: benchtime.String(),
	}
	if rep.Manifest.GitDirty {
		fmt.Fprintln(os.Stderr,
			"ftmc-bench: warning: VCS working tree is dirty — this report does not describe a committed state; commit (or stash) before refreshing BENCH history")
	}
	safety.ResetTotalCacheStats()

	var fastNs, naiveNs float64
	var fig3Pooled, fig3Ref BenchResult
	var campaign, perCurve BenchResult
	var poolSteal, poolFixed, shardGet BenchResult
	var dist1, dist2, dist4 BenchResult
	for _, bench := range benches() {
		r := testing.Benchmark(bench.fn)
		br := BenchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, br)
		switch bench.name {
		case "SafetyKillingPFH":
			fastNs = br.NsPerOp
		case "SafetyKillingPFHNaive":
			naiveNs = br.NsPerOp
		case "Fig3PanelPooled":
			fig3Pooled = br
		case "Fig3PanelRef":
			fig3Ref = br
		case "Fig3CampaignFigure":
			campaign = br
		case "Fig3CampaignPerCurve":
			perCurve = br
		case "PoolStealSkewed":
			poolSteal = br
		case "PoolFixedSkewed":
			poolFixed = br
		case "ShardedCacheConcurrent8":
			shardGet = br
		case "DistCampaign1Worker":
			dist1 = br
		case "DistCampaign2Workers":
			dist2 = br
		case "DistCampaign4Workers":
			dist4 = br
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%-28s %12d iter %14.0f ns/op %10d allocs/op\n", bench.name, br.Iterations, br.NsPerOp, br.AllocsPerOp)
		}
	}
	if fastNs > 0 {
		rep.KernelSpeedup = naiveNs / fastNs
	}
	if fig3Pooled.NsPerOp > 0 {
		rep.Fig3PoolSpeedup = fig3Ref.NsPerOp / fig3Pooled.NsPerOp
		rep.Fig3AllocsPerSetPooled = float64(fig3Pooled.AllocsPerOp) / fig3BenchSets
		rep.Fig3AllocsPerSetRef = float64(fig3Ref.AllocsPerOp) / fig3BenchSets
		if fig3Pooled.AllocsPerOp > 0 {
			rep.Fig3AllocReduction = float64(fig3Ref.AllocsPerOp) / float64(fig3Pooled.AllocsPerOp)
		}
	}
	if campaign.NsPerOp > 0 {
		rep.CampaignSpeedup = perCurve.NsPerOp / campaign.NsPerOp
	}
	if poolSteal.NsPerOp > 0 {
		rep.StealPool = &StealPoolSection{
			FixedNsPerOp: poolFixed.NsPerOp,
			StealNsPerOp: poolSteal.NsPerOp,
			Speedup:      poolFixed.NsPerOp / poolSteal.NsPerOp,
		}
	}
	if shardGet.NsPerOp > 0 {
		rep.ShardedCache = &ShardedCacheSection{
			NsPerGet:    shardGet.NsPerOp,
			MemoHitRate: shardBenchStats.HitRate(),
			Contexts:    shardBenchContexts,
		}
	}
	rep.DistributedCampaign = distCampaignSection(campaign, dist1, dist2, dist4)
	if st, err := serveThroughputSection(); err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: serve_throughput: %v\n", err)
		os.Exit(1)
	} else {
		rep.ServeThroughput = st
	}
	rep.CacheHitRate = safety.TotalCacheStats().HitRate()
	if *metrics {
		snap := obsv.Default().Snapshot()
		rep.Metrics = &snap
	}

	if *before != "" {
		base, err := loadReport(*before)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-bench: -before: %v\n", err)
			os.Exit(1)
		}
		baseIdx := benchIndex(base)
		rep.BeforeAfter = make(map[string]BeforeAfter)
		for _, b := range rep.Benchmarks {
			o, ok := baseIdx[b.Name]
			if !ok {
				continue
			}
			ba := BeforeAfter{
				BeforeNsPerOp: o.NsPerOp, AfterNsPerOp: b.NsPerOp,
				BeforeAllocsPerOp: o.AllocsPerOp, AfterAllocsPerOp: b.AllocsPerOp,
			}
			if b.NsPerOp > 0 {
				ba.Speedup = o.NsPerOp / b.NsPerOp
			}
			rep.BeforeAfter[b.Name] = ba
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ftmc-bench: kernel speedup %.1fx (naive %.2fms vs fast %.3fms), cache hit rate %.0f%%; wrote %s\n",
			rep.KernelSpeedup, naiveNs/1e6, fastNs/1e6, 100*rep.CacheHitRate, *out)
		fmt.Printf("ftmc-bench: Fig3 pooled engine %.2fx wall-clock, allocs/set %.1f -> %.1f (%.0fx fewer)\n",
			rep.Fig3PoolSpeedup, rep.Fig3AllocsPerSetRef, rep.Fig3AllocsPerSetPooled, rep.Fig3AllocReduction)
		fmt.Printf("ftmc-bench: campaign engine %.1fx wall-clock on the full figure (per-curve %.0fms vs campaign %.1fms)\n",
			rep.CampaignSpeedup, perCurve.NsPerOp/1e6, campaign.NsPerOp/1e6)
		if rep.StealPool != nil {
			fmt.Printf("ftmc-bench: stealing pool %.2fx vs fixed cursor on the skewed workload\n", rep.StealPool.Speedup)
		}
		if rep.ShardedCache != nil {
			fmt.Printf("ftmc-bench: sharded cache %.0fns/get at %d contexts, memo hit rate %.0f%%\n",
				rep.ShardedCache.NsPerGet, rep.ShardedCache.Contexts, 100*rep.ShardedCache.MemoHitRate)
		}
		if dc := rep.DistributedCampaign; dc != nil {
			fmt.Printf("ftmc-bench: distributed campaign %.0f sets/s at 1 worker (%.2fx protocol overhead), %.2fx at 2, %.2fx at 4\n",
				dc.Dist1SetsPerSec, dc.ProtocolOverhead, dc.Speedup2, dc.Speedup4)
			if w := dc.Wire; w != nil {
				fmt.Printf("ftmc-bench: wire marginal bytes/lease: binary %.0f vs json %.0f (%.1fx)\n",
					w.BinaryBytesPerLease, w.JSONBytesPerLease, w.Ratio)
			}
		}
		if st := rep.ServeThroughput; st != nil {
			fmt.Printf("ftmc-bench: serve pipeline cold %.0fns warm %.0fns per verdict (%.0fx), concurrent miss %.0fns, duplicate miss %.0fns (%.2f analyses/set) at concurrency %d, workers %d\n",
				st.ColdCache.NsPerVerdict, st.WarmCache.NsPerVerdict, st.WarmSpeedup,
				st.ConcurrentMiss.NsPerVerdict, st.DuplicateMiss.NsPerVerdict, st.DuplicateAnalysesPerSet,
				st.Concurrency, st.Workers)
		}
	}

	if *compare != "" {
		base, err := loadReport(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmc-bench: -compare: %v\n", err)
			os.Exit(1)
		}
		if msgs := regressions(base, rep); len(msgs) > 0 {
			fmt.Fprintf(os.Stderr, "ftmc-bench: %d regression(s) vs %s:\n", len(msgs), *compare)
			for _, m := range msgs {
				fmt.Fprintf(os.Stderr, "  %s\n", m)
			}
			// Exit 2 distinguishes "benchmarks got slower" from harness
			// errors (exit 1); the CI smoke tolerates only the former.
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "ftmc-bench: no regressions vs %s\n", *compare)
	}
}

// namedBench pairs a benchmark closure with its report name.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benches lists the measured workloads. The kernel pair mirrors
// BenchmarkSafetyKillingPFH / ...Naive in bench_test.go; the rest are
// end-to-end analyses dominated by the safety kernel and the sweeps.
func benches() []namedBench {
	fmsKill := gen.FMSAt(gen.DefaultFMSKillSeed)
	cfg := safety.Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	hi := fmsKill.ByClass(criticality.HI)
	lo := fmsKill.ByClass(criticality.LO)
	adapt, err := safety.NewUniformAdaptation(cfg, hi, 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
		os.Exit(1)
	}
	ns := []int{2, 2, 2, 2}
	return []namedBench{
		{"SafetyKillingPFH", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cfg.KillingPFHLOUniform(lo, 2, adapt) <= 0 {
					b.Fatal("bad bound")
				}
			}
		}},
		{"SafetyKillingPFHNaive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cfg.KillingPFHLONaive(lo, ns, adapt) <= 0 {
					b.Fatal("bad bound")
				}
			}
		}},
		{"PoolStealSkewed", func(b *testing.B) {
			poolBench(b, expt.ForEachWorker)
		}},
		{"PoolFixedSkewed", func(b *testing.B) {
			poolBench(b, expt.ForEachWorkerFixed)
		}},
		{"ShardedCacheConcurrent8", benchShardedCache},
		{"DistCampaign1Worker", distCampaignBench(1)},
		{"DistCampaign2Workers", distCampaignBench(2)},
		{"DistCampaign4Workers", distCampaignBench(4)},
		{"Fig1FMSKilling", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expt.Fig1(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig2FMSDegradation", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expt.Fig2(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ExploreDesignSpace", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := explore.Explore(fmsKill, explore.Options{Safety: cfg})
				if err != nil || len(ds) == 0 {
					b.Fatal(err)
				}
			}
		}},
		{"FTSAnalyzeFMS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := ftmc.AnalyzeEDFVD(fmsKill, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		}},
		{"Fig3PointKillD", func(b *testing.B) {
			pcfg, err := expt.PanelConfig("3a", 10, 1)
			if err != nil {
				b.Fatal(err)
			}
			pcfg.Utils = []float64{0.8}
			for i := 0; i < b.N; i++ {
				if _, err := expt.Fig3(pcfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Fig3PanelPooled", singleWorker(func(b *testing.B) {
			pcfg := fig3BenchPanel()
			for i := 0; i < b.N; i++ {
				if _, err := expt.Fig3(pcfg); err != nil {
					b.Fatal(err)
				}
			}
		})},
		{"Fig3PanelRef", singleWorker(func(b *testing.B) {
			pcfg := fig3BenchPanel()
			for i := 0; i < b.N; i++ {
				if _, err := expt.Fig3Ref(pcfg); err != nil {
					b.Fatal(err)
				}
			}
		})},
		{"Fig3CampaignFigure", singleWorker(func(b *testing.B) {
			ccfg := campaignBenchConfig()
			for i := 0; i < b.N; i++ {
				if _, err := expt.Campaign(ccfg); err != nil {
					b.Fatal(err)
				}
			}
		})},
		{"Fig3CampaignPerCurve", singleWorker(func(b *testing.B) {
			ccfg := campaignBenchConfig()
			for i := 0; i < b.N; i++ {
				for _, p := range ccfg.Panels {
					for _, f := range ccfg.FailProbs {
						if _, err := expt.Fig3(ccfg.PanelFig3Config(p, f)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})},
		{"SimulatorHyperperiod", func(b *testing.B) {
			s := benchSimSet()
			probs := []float64{1e-3, 1e-3, 1e-3, 1e-3, 1e-3}
			for i := 0; i < b.N; i++ {
				stats, err := sim.Run(sim.Config{
					Set: s, NHI: 3, NLO: 1, NPrime: 2,
					Mode: safety.Kill, Policy: sim.PolicyEDFVD,
					Horizon: timeunit.Milliseconds(12600),
					Faults:  ftmc.RandomFaults(rand.New(rand.NewSource(int64(i))), probs),
				})
				if err != nil {
					b.Fatal(err)
				}
				if stats.DeadlineMisses(criticality.HI) != 0 {
					b.Fatal("HI deadline miss")
				}
			}
		}},
	}
}

// fig3BenchSets is the number of task sets one Fig3Panel* benchmark op
// evaluates (SetsPerPoint × |FailProbs| × |Utils|); allocs-per-set in the
// report divides by it.
const fig3BenchSets = 20 * 2 * 1

// fig3BenchPanel is the fixed-seed panel both Fig3Panel* benchmarks run:
// panel 3a at U = 0.8 with 20 sets per point and both failure probs.
func fig3BenchPanel() expt.Fig3Config {
	pcfg, err := expt.PanelConfig("3a", 20, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftmc-bench: %v\n", err)
		os.Exit(1)
	}
	pcfg.Utils = []float64{0.8}
	return pcfg
}

// campaignBenchConfig is the fixed-seed full figure both Fig3Campaign*
// benchmarks produce: all four panels and both failure probabilities over
// the whole paper utilization axis, 8 sets per point — the before/after
// pair behind the report's campaign_speedup.
func campaignBenchConfig() expt.CampaignConfig {
	return expt.PaperCampaign(8, 1)
}

// singleWorker pins FTMC_WORKERS to 1 around fn so the pooled-vs-ref
// comparison in the committed report measures single-worker wall clock,
// independent of the host's core count. The restore rides on b.Setenv's
// cleanup, so a panicking or Fatal-ing benchmark cannot leak the pin
// into the benchmarks that run after it.
func singleWorker(fn func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		b.Setenv("FTMC_WORKERS", "1")
		fn(b)
	}
}

// poolBench drives one scheduler implementation over a skewed synthetic
// workload: every eighth index costs ~16x, the shape the campaign's
// cheap-test-first ordering produces, so scheduler quality shows as
// wall clock and scheduler overhead shows on the cheap indices.
func poolBench(b *testing.B, run func(n, chunk int, fn func(worker, i int) error) error) {
	// Width pinned above the runner's CPU count so the steal machinery
	// engages (victim scans, CAS claims, backoff) even on a single-CPU
	// host; with the host default both schedulers collapse to their
	// serial paths and the comparison measures nothing.
	b.Setenv("FTMC_WORKERS", "4")
	const n = 256
	sink := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(n, 2, func(_, i int) error {
			iters := 400
			if i%8 == 0 {
				iters = 6400
			}
			x := uint64(i) + 1
			for k := 0; k < iters; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[i] = x
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// shardBenchStats / shardBenchContexts carry the sharded-cache pool's
// aggregate memo statistics out of the benchmark closure into the
// report's sharded_cache section.
var (
	shardBenchStats    safety.CacheStats
	shardBenchContexts int
)

// benchShardedCache hammers one CacheShards pool with 8-way concurrent
// resolve+bound traffic over an 8-context universe (paper draws at
// U = 0.8): the serve/explore sharing pattern the shards exist for.
func benchShardedCache(b *testing.B) {
	const contexts = 8
	scfg := safety.DefaultConfig()
	his := make([][]task.Task, 0, contexts)
	los := make([][]task.Task, 0, contexts)
	rng := rand.New(rand.NewSource(17))
	for len(his) < contexts {
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.8, 1e-3))
		if err != nil {
			continue
		}
		hi := append([]task.Task(nil), s.ByClass(criticality.HI)...)
		lo := append([]task.Task(nil), s.ByClass(criticality.LO)...)
		if len(hi) == 0 || len(lo) == 0 {
			continue
		}
		his = append(his, hi)
		los = append(los, lo)
	}
	pool := safety.NewCacheShards()
	gomax := runtime.GOMAXPROCS(0)
	b.SetParallelism((contexts + gomax - 1) / gomax) // ≥ 8 goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := i % contexts
			i++
			c := pool.Get(scfg, his[k], los[k])
			if v, err := c.KillingPFHLOUniform(2, 1+k%3); err != nil || v <= 0 {
				b.Fatal("bad pooled bound")
			}
		}
	})
	b.StopTimer()
	shardBenchStats = pool.Stats()
	shardBenchContexts = pool.Contexts()
}

// benchSimSet is the Example 3.1 task set (hyperperiod 12.6 s).
func benchSimSet() *task.Set {
	mk := func(name string, T, C int64, l criticality.Level) task.Task {
		return task.Task{
			Name: name, Period: timeunit.Milliseconds(T), Deadline: timeunit.Milliseconds(T),
			WCET: timeunit.Milliseconds(C), Level: l, FailProb: 1e-3,
		}
	}
	return task.MustNewSet([]task.Task{
		mk("τ1", 60, 5, criticality.LevelB),
		mk("τ2", 25, 4, criticality.LevelB),
		mk("τ3", 40, 7, criticality.LevelD),
		mk("τ4", 90, 6, criticality.LevelD),
		mk("τ5", 70, 8, criticality.LevelD),
	})
}
