package safety

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// perturbHI derives a distinct analysis context from a base HI view by
// shifting one WCET: cheap to build in bulk, and every k is a different
// canonical context.
func perturbHI(hi []task.Task, k int) []task.Task {
	out := append([]task.Task(nil), hi...)
	out[0].WCET += timeunit.Time(k + 1)
	return out
}

// TestCacheShardsLRUBound: a pool with a small cap must stay within it
// under arbitrary churn, count one eviction per insert beyond it, and
// lose no memo miss of an evicted cache from the safety.cache counters.
func TestCacheShardsLRUBound(t *testing.T) {
	counter := installRegistry(t)
	cfg, hi, lo := shardContext(t, 41)
	const capacity = 16
	p := NewCacheShardsCap(capacity)
	const contexts = capacity * 4 // 4x the pool capacity
	for k := 0; k < contexts; k++ {
		c := p.Get(cfg, perturbHI(hi, k), lo)
		if _, err := c.killingPFHLOUniform(2, 2); err != nil {
			t.Fatal(err)
		}
		if n := p.Contexts(); n > capacity {
			t.Fatalf("after %d inserts the pool holds %d contexts, cap is %d", k+1, n, capacity)
		}
	}
	if ev := counter("safety.shards.evictions"); ev != contexts-capacity {
		t.Fatalf("4x-overcommitted pool evicted %d contexts, want %d", ev, contexts-capacity)
	}
	if misses := counter("safety.cache.misses"); misses < contexts {
		// Every context was new and did at least one bound evaluation.
		t.Fatalf("%d memo misses over %d new contexts", misses, contexts)
	}
}

// TestCacheShardsExactBound pins the cap as an exact bound on contexts:
// after 5·N + 40 distinct contexts a pool built with N holds N of them
// and has evicted the other 4·N + 40.
func TestCacheShardsExactBound(t *testing.T) {
	cfg, hi, lo := shardContext(t, 61)
	for _, n := range []int{1, 5, 17, 100} {
		counter := installRegistry(t)
		p := NewCacheShardsCap(n)
		for k := 0; k < 5*n+40; k++ {
			p.Get(cfg, perturbHI(hi, k), lo)
		}
		if got := p.Contexts(); got != n {
			t.Errorf("cap %d: pool holds %d contexts", n, got)
		}
		if ev := counter("safety.shards.evictions"); ev != uint64(4*n+40) {
			t.Errorf("cap %d: %d evictions, want %d", n, ev, 4*n+40)
		}
	}
}

// TestCacheShardsLRUKeepsHot: under a cap of one context, a context
// re-resolved immediately before the next probe must still be pooled
// (pointer identity preserved) — recency protects the hot working set
// while cold contexts churn.
func TestCacheShardsLRUKeepsHot(t *testing.T) {
	counter := installRegistry(t)
	cfg, hi, lo := shardContext(t, 43)
	p := NewCacheShardsCap(1)
	p.Get(cfg, hi, lo)
	for k := 0; k < 512; k++ {
		p.Get(cfg, perturbHI(hi, k), lo) // cold insert, evicts
		c := p.Get(cfg, hi, lo)          // re-creates the evicted hot context
		if c2 := p.Get(cfg, hi, lo); c2 != c {
			t.Fatalf("iteration %d: hot context evicted immediately after use", k)
		}
	}
	if ev := counter("safety.shards.evictions"); ev == 0 {
		t.Fatal("cap-1 pool under 512 cold inserts evicted nothing")
	}
}

// TestCacheShardsChurnSoak is the multi-context churn stress run under
// -race by the race-pool-shard CI job: N goroutines × M distinct
// contexts with interleaved Get/analyze against a capped pool. Asserts
// no lost verdicts (every bound read from a pooled cache equals the
// reference computed on a private cache), bounded memory (Contexts()
// never exceeds the cap) and clean termination.
func TestCacheShardsChurnSoak(t *testing.T) {
	const (
		workers     = 8
		contexts    = 96
		maxContexts = 32 // far below the working set: constant churn
		iters       = 400
	)
	cfgs := make([]Config, contexts)
	his := make([][]task.Task, contexts)
	los := make([][]task.Task, contexts)
	want := make([]float64, contexts)
	for i := 0; i < contexts; i++ {
		cfg, hi, lo := shardContext(t, int64(300+i))
		cfgs[i], his[i], los[i] = cfg, hi, lo
		v, err := NewAdaptationCache(cfg, hi, lo).killingPFHLOUniform(2, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	counter := installRegistry(t)
	p := NewCacheShardsCap(maxContexts)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for it := 0; it < iters; it++ {
				i := rng.Intn(contexts)
				c := p.Get(cfgs[i], his[i], los[i])
				got, err := c.killingPFHLOUniform(2, 1+i%3)
				if err != nil {
					errs[w] = err
					return
				}
				if got != want[i] {
					t.Errorf("worker %d context %d: pooled bound %g != reference %g", w, i, got, want[i])
					return
				}
				if it%64 == 0 {
					if n := p.Contexts(); n > maxContexts {
						t.Errorf("pool grew to %d contexts, cap is %d", n, maxContexts)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := p.Contexts(); n > maxContexts {
		t.Fatalf("pool ended at %d contexts, cap is %d", n, maxContexts)
	}
	if ev := counter("safety.shards.evictions"); ev == 0 {
		t.Fatalf("soak with working set %d over capacity %d evicted nothing", contexts, maxContexts)
	}
	if hits, misses := counter("safety.shards.hits"), counter("safety.shards.misses"); hits == 0 || misses == 0 {
		t.Fatalf("soak counted %d pool hits, %d misses", hits, misses)
	}
}

// TestCacheShardsEvictedCacheStaysValid: a cache handle obtained before
// its context is evicted must keep answering correctly afterwards —
// eviction drops the pool's reference, never the cache's state.
func TestCacheShardsEvictedCacheStaysValid(t *testing.T) {
	cfg, hi, lo := shardContext(t, 53)
	want, err := NewAdaptationCache(cfg, hi, lo).killingPFHLOUniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := NewCacheShardsCap(1)
	held := p.Get(cfg, hi, lo)
	// Flood the pool so the held context is certainly evicted.
	rng := rand.New(rand.NewSource(59))
	for k := 0; k < 256; k++ {
		s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5))
		if err != nil {
			continue
		}
		hiK := s.ByClass(criticality.HI)
		loK := s.ByClass(criticality.LO)
		if len(hiK) == 0 || len(loK) == 0 {
			continue
		}
		p.Get(cfg, hiK, loK)
	}
	got, err := held.killingPFHLOUniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("evicted cache answered %g, want %g", got, want)
	}
}
