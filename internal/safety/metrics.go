package safety

import "repro/internal/obsv"

// safetyMetrics is the package's instrument bundle (see internal/obsv):
// adaptation-cache effectiveness (hits and misses summed over every
// AdaptationCache) and the line-4 search's pfh(LO) probe volume. Fields
// are nil while metrics are disabled (nil-safe no-op methods).
type safetyMetrics struct {
	cacheHits      *obsv.Counter
	cacheMisses    *obsv.Counter
	minAdaptProbes *obsv.Counter
	// Sharded-cache effectiveness mirrors the per-CacheShards counters
	// into the exported snapshot.
	shardHits      *obsv.Counter
	shardMisses    *obsv.Counter
	shardEvictions *obsv.Counter
}

var safetyView = obsv.NewView(func(r *obsv.Registry) *safetyMetrics {
	return &safetyMetrics{
		cacheHits:      r.Counter("safety.cache.hits"),
		cacheMisses:    r.Counter("safety.cache.misses"),
		minAdaptProbes: r.Counter("safety.minadapt.probes"),
		shardHits:      r.Counter("safety.shards.hits"),
		shardMisses:    r.Counter("safety.shards.misses"),
		shardEvictions: r.Counter("safety.shards.evictions"),
	}
})
