package safety

import "repro/internal/obsv"

// safetyMetrics is the package's instrument bundle (see internal/obsv):
// adaptation-cache effectiveness (hits and misses summed over every
// AdaptationCache), the line-4 search's pfh(LO) probe volume, how the
// Kill-mode MeetsLO probes that reach eq. (5) were decided (by the
// certified interval, settled, or by the exact sweep, fallbacks), and
// the CacheShards pool's traffic. Fields are nil while metrics are
// disabled (nil-safe no-op methods).
type safetyMetrics struct {
	cacheHits      *obsv.Counter
	cacheMisses    *obsv.Counter
	minAdaptProbes *obsv.Counter
	killSettled    *obsv.Counter
	killFallbacks  *obsv.Counter
	shardHits      *obsv.Counter
	shardMisses    *obsv.Counter
	shardEvictions *obsv.Counter
}

var safetyView = obsv.NewView(func(r *obsv.Registry) *safetyMetrics {
	return &safetyMetrics{
		cacheHits:      r.Counter("safety.cache.hits"),
		cacheMisses:    r.Counter("safety.cache.misses"),
		minAdaptProbes: r.Counter("safety.minadapt.probes"),
		killSettled:    r.Counter("safety.kill.interval_settled"),
		killFallbacks:  r.Counter("safety.kill.interval_fallbacks"),
		shardHits:      r.Counter("safety.shards.hits"),
		shardMisses:    r.Counter("safety.shards.misses"),
		shardEvictions: r.Counter("safety.shards.evictions"),
	}
})
