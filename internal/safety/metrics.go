package safety

import "repro/internal/obsv"

// safetyMetrics is the package's instrument bundle (see internal/obsv):
// adaptation-cache effectiveness (hits and misses summed over every
// AdaptationCache), the line-4 search's pfh(LO) probe volume, and how
// often the incremental AdaptEval state is reused versus rebound — the
// reuse ratio is the whole point of the incremental inner loop, so a
// drop here flags a binding-invalidation regression before it shows up
// as ns/op. Fields are nil while metrics are disabled (nil-safe no-op
// methods).
type safetyMetrics struct {
	cacheHits      *obsv.Counter
	cacheMisses    *obsv.Counter
	minAdaptProbes *obsv.Counter
	evalRebinds    *obsv.Counter
	evalReuses     *obsv.Counter
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
		evalRebinds:    r.Counter("safety.adapteval.rebinds"),
		evalReuses:     r.Counter("safety.adapteval.reuses"),
		shardHits:      r.Counter("safety.shards.hits"),
		shardMisses:    r.Counter("safety.shards.misses"),
		shardEvictions: r.Counter("safety.shards.evictions"),
	}
})
