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

// TestCacheShardsLRUBound: a pool with a small per-shard cap must stay
// within cap×shardCount contexts under arbitrary churn, count its
// evictions, and keep Stats() monotone (evicted caches' hit/miss totals
// fold into the retired counters instead of vanishing).
func TestCacheShardsLRUBound(t *testing.T) {
	cfg, hi, lo := shardContext(t, 41)
	const perShard = 2
	p := NewCacheShardsCap(perShard)
	const contexts = shardCount * perShard * 4 // 4x the pool capacity
	var prev CacheStats
	for k := 0; k < contexts; k++ {
		c := p.Get(cfg, perturbHI(hi, k), lo)
		if _, err := c.killingPFHLOUniform(2, 2); err != nil {
			t.Fatal(err)
		}
		if n := p.Contexts(); n > perShard*shardCount {
			t.Fatalf("after %d inserts the pool holds %d contexts, cap is %d", k+1, n, perShard*shardCount)
		}
		st := p.Stats()
		if st.Hits+st.Misses < prev.Hits+prev.Misses {
			t.Fatalf("stats went backwards across eviction: %+v then %+v", prev, st)
		}
		prev = st
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("4x-overcommitted pool evicted nothing: %+v", st)
	}
	if st.Misses < uint64(contexts) {
		// Every context was new and did at least one bound evaluation, and
		// eviction must not have dropped those misses from the aggregate.
		t.Fatalf("aggregate misses %d lost across evictions (want >= %d)", st.Misses, contexts)
	}
}

// TestCacheShardsLRUKeepsHot: under a cap of one context per shard, a
// context re-resolved immediately before the next probe must still be
// pooled (pointer identity preserved) — recency protects the hot
// working set while cold contexts churn.
func TestCacheShardsLRUKeepsHot(t *testing.T) {
	cfg, hi, lo := shardContext(t, 43)
	p := NewCacheShardsCap(1)
	hot := p.Get(cfg, hi, lo)
	for k := 0; k < 512; k++ {
		p.Get(cfg, perturbHI(hi, k), lo) // cold insert, may evict
		c := p.Get(cfg, hi, lo)          // may re-create if the cold insert shared the shard
		if c2 := p.Get(cfg, hi, lo); c2 != c {
			t.Fatalf("iteration %d: hot context evicted immediately after use", k)
		}
		hot = c
	}
	_ = hot
	if st := p.Stats(); st.Evictions == 0 {
		t.Fatalf("cap-1 pool under 512 cold inserts evicted nothing: %+v", st)
	}
}

// TestCacheShardsUnboundedCompat: cap <= 0 restores the original
// unbounded pool; nothing is ever evicted.
func TestCacheShardsUnboundedCompat(t *testing.T) {
	cfg, hi, lo := shardContext(t, 47)
	p := NewCacheShardsCap(0)
	for k := 0; k < 256; k++ {
		p.Get(cfg, perturbHI(hi, k), lo)
	}
	if n := p.Contexts(); n != 256 {
		t.Fatalf("unbounded pool holds %d contexts, want 256", n)
	}
	if st := p.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded pool reported evictions: %+v", st)
	}
}

// TestCacheShardsChurnSoak is the multi-context churn stress of the
// ROADMAP harness item, run under -race by the race-pool-shard CI job:
// N goroutines × M distinct contexts with interleaved Get/analyze
// against a capped pool. Asserts no lost verdicts (every bound read
// from a pooled cache equals the reference computed on a private
// cache), bounded memory (Contexts() never exceeds the cap) and clean
// termination.
func TestCacheShardsChurnSoak(t *testing.T) {
	const (
		workers     = 8
		contexts    = 96
		perShard    = 1 // far below the working set: constant churn
		iters       = 400
		maxContexts = perShard * shardCount
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
	p := NewCacheShardsCap(perShard)
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
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("soak with working set %d over capacity %d evicted nothing", contexts, maxContexts)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("soak stats look wrong: %+v", st)
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
	// Flood every shard so the held context is certainly evicted.
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
