package core

import (
	"testing"

	"repro/internal/obsv"
	"repro/internal/safety"
)

// withLiveRegistry routes the package views at a fresh registry for the
// duration of the test, restoring the disabled default afterwards.
func withLiveRegistry(tb testing.TB) *obsv.Registry {
	tb.Helper()
	r := obsv.NewRegistry()
	obsv.SetDefault(r)
	tb.Cleanup(func() { obsv.SetDefault(nil) })
	return r
}

// TestFTSMetricsZeroAllocs pins the 0 allocs/op contract of the pooled
// FTS path (pooledFTS) WITH a live metrics registry: the instrument
// bundle is resolved once per registry by the obsv.View cache (the
// warm-up pass below absorbs that one allocation), and every Inc on the
// hot path is a plain atomic add. A regression here means someone put
// an allocating instrument call inside the searches.
func TestFTSMetricsZeroAllocs(t *testing.T) {
	withLiveRegistry(t)
	sets := randomSets(t, 5, 0.85)
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Scratch: NewScratch()}
	cache := safety.NewAdaptationCache(opt.Safety, nil, nil)
	pooledFTS(t, sets, opt, cache)
	if avg := testing.AllocsPerRun(10, func() { pooledFTS(t, sets, opt, cache) }); avg != 0 {
		t.Errorf("FTS with live metrics allocates %.1f allocs/run", avg)
	}
}

// TestFTSMetricsCount sanity-checks that an instrumented run actually
// moves the counters: calls ≥ successes, and the line-8 probe count
// covers at least one conversion per successful analysis.
func TestFTSMetricsCount(t *testing.T) {
	r := withLiveRegistry(t)
	scr := NewScratch()
	opt := Options{Safety: safety.DefaultConfig(), Mode: safety.Kill, Scratch: scr}
	for _, s := range randomSets(t, 5, 0.85) {
		if _, err := FTS(s, opt); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	calls := snap.Counters["core.fts.calls"]
	succ := snap.Counters["core.fts.success"]
	probes := snap.Counters["core.line8.probes"]
	if calls != 5 {
		t.Fatalf("core.fts.calls = %d, want 5", calls)
	}
	if succ > calls {
		t.Fatalf("successes %d exceed calls %d", succ, calls)
	}
	if probes < succ {
		t.Fatalf("line-8 probes %d below success count %d", probes, succ)
	}
	if dp, fc := snap.Counters["core.line8.delta_patches"], snap.Counters["core.line8.full_converts"]; dp+fc != probes {
		t.Fatalf("delta_patches %d + full_converts %d != probes %d", dp, fc, probes)
	}
}

// benchFTSMetrics is benchFTS against a configurable registry; the
// nil/live pair quantifies the instrumentation overhead on the pooled
// hot path (manually compare, or let -compare catch a blow-up in the
// committed BENCH history — the budget is <5% ns/op).
func benchFTSMetrics(b *testing.B, reg *obsv.Registry) {
	obsv.SetDefault(reg)
	b.Cleanup(func() { obsv.SetDefault(nil) })
	benchFTS(b, NewScratch())
}

// BenchmarkFTSMetricsOff is the pooled FTS workload with metrics
// disabled (the nil-registry fast path: per-call view load + branch).
func BenchmarkFTSMetricsOff(b *testing.B) { benchFTSMetrics(b, nil) }

// BenchmarkFTSMetricsOn is the same workload with a live registry, so
// every probe/convert counter fires. Compare ns/op against ...Off.
func BenchmarkFTSMetricsOn(b *testing.B) { benchFTSMetrics(b, obsv.NewRegistry()) }
