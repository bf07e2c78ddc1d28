package safety

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/task"
)

func shardContext(t *testing.T, seed int64) (Config, []task.Task, []task.Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := gen.TaskSet(rng, gen.PaperParams(criticality.LevelB, criticality.LevelC, 0.7, 1e-5))
	if err != nil {
		t.Fatal(err)
	}
	hi := append([]task.Task(nil), s.ByClass(criticality.HI)...)
	lo := append([]task.Task(nil), s.ByClass(criticality.LO)...)
	if len(hi) == 0 || len(lo) == 0 {
		return shardContext(t, seed+1)
	}
	return DefaultConfig(), hi, lo
}

// TestCacheShardsSharing checks the pooling contract: equal analysis
// contexts resolve the same cache (pointer-equal, regardless of slice
// identity or task names), different contexts resolve different caches.
func TestCacheShardsSharing(t *testing.T) {
	cfg, hi, lo := shardContext(t, 1)
	p := NewCacheShards()
	a := p.Get(cfg, hi, lo)
	if b := p.Get(cfg, hi, lo); b != a {
		t.Fatal("same context resolved a different cache")
	}

	// A renamed clone in different backing arrays is the same context.
	hi2 := append([]task.Task(nil), hi...)
	lo2 := append([]task.Task(nil), lo...)
	for i := range hi2 {
		hi2[i].Name = "renamed"
	}
	if b := p.Get(cfg, hi2, lo2); b != a {
		t.Fatal("renamed clone resolved a different cache")
	}

	// Any analysis-relevant difference is a different context.
	hi3 := append([]task.Task(nil), hi...)
	hi3[0].WCET++
	if b := p.Get(cfg, hi3, lo); b == a {
		t.Fatal("different WCET shared a cache")
	}
	cfg2 := cfg
	cfg2.OperationHours++
	if b := p.Get(cfg2, hi, lo); b == a {
		t.Fatal("different config shared a cache")
	}
	_, hiB, loB := shardContext(t, 2)
	if b := p.Get(cfg, hiB, loB); b == a {
		t.Fatal("different set shared a cache")
	}
	if n := p.Contexts(); n != 4 {
		t.Fatalf("pool holds %d contexts, want 4", n)
	}
}

// TestCacheShardsCopiesTasks checks entries own their task slices: the
// caller may recycle its arena right after Get, and later bounds from
// the pooled cache still match a cache built on stable slices.
func TestCacheShardsCopiesTasks(t *testing.T) {
	cfg, hi, lo := shardContext(t, 3)
	want, err := NewAdaptationCache(cfg, hi, lo).killingPFHLOUniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := NewCacheShards()
	arenaHI := append([]task.Task(nil), hi...)
	arenaLO := append([]task.Task(nil), lo...)
	c := p.Get(cfg, arenaHI, arenaLO)
	for i := range arenaHI {
		arenaHI[i] = task.Task{} // recycle the arena
	}
	for i := range arenaLO {
		arenaLO[i] = task.Task{}
	}
	got, err := c.killingPFHLOUniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pooled cache gave %g after arena recycle, want %g", got, want)
	}
}

// TestCacheShardsConcurrent hammers one pool from many goroutines over
// a small context universe (run under -race by the CI race job): every
// worker must resolve the same pointer per context and read the same
// bound values.
func TestCacheShardsConcurrent(t *testing.T) {
	const contexts = 8
	cfgs := make([]Config, contexts)
	his := make([][]task.Task, contexts)
	los := make([][]task.Task, contexts)
	want := make([]float64, contexts)
	for i := 0; i < contexts; i++ {
		cfg, hi, lo := shardContext(t, int64(10+i))
		cfgs[i], his[i], los[i] = cfg, hi, lo
		v, err := NewAdaptationCache(cfg, hi, lo).killingPFHLOUniform(2, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	p := NewCacheShards()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % contexts
				c := p.Get(cfgs[i], his[i], los[i])
				got, err := c.killingPFHLOUniform(2, 1+i%3)
				if err != nil {
					errs[w] = err
					return
				}
				if got != want[i] {
					t.Errorf("worker %d context %d: %g != %g", w, i, got, want[i])
					return
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
	if n := p.Contexts(); n != contexts {
		t.Fatalf("pool holds %d contexts, want %d", n, contexts)
	}
	if st := p.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("aggregated stats look wrong: %+v", st)
	}
}

// TestContextHashSpread is a sanity floor on the canonical hash: random
// paper draws must not pile onto a few shards.
func TestContextHashSpread(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 128; i++ {
		cfg, hi, lo := shardContext(t, int64(100+i))
		seen[contextHash(cfg, hi, lo)&(shardCount-1)] = true
	}
	if len(seen) < shardCount/2 {
		t.Fatalf("128 contexts hit only %d of %d shards", len(seen), shardCount)
	}
}

// BenchmarkCacheShardsConcurrent8 hammers one pool with 8-way concurrent
// resolve+bound traffic over an 8-context universe (paper draws at
// U = 0.8): the serve/explore sharing pattern the shards exist for. It
// reports ns per Get+bound cycle and the pooled caches' memo hit rate.
func BenchmarkCacheShardsConcurrent8(b *testing.B) {
	const contexts = 8
	scfg := DefaultConfig()
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
	pool := NewCacheShards()
	gomax := runtime.GOMAXPROCS(0)
	b.SetParallelism((contexts + gomax - 1) / gomax) // ≥ 8 goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := i % contexts
			i++
			c := pool.Get(scfg, his[k], los[k])
			if v, err := c.killingPFHLOUniform(2, 1+k%3); err != nil || v <= 0 {
				b.Error("bad pooled bound")
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(pool.Stats().HitRate(), "hit-rate")
}
