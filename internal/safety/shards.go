package safety

import (
	"sync"
	"sync/atomic"

	"repro/internal/task"
)

// shardCount is the power-of-two width of a CacheShards pool. Sizing: a
// Get takes one shard mutex for a map probe (bounds evaluate outside the
// shard lock, under the resolved cache's own lock), so shards only need
// to outnumber plausible worker counts by enough that the birthday
// collision rate on concurrent probes stays low — 64 shards keep the
// expected contention below 2% at 16 workers for a few dozen bytes of
// fixed overhead per shard.
const shardCount = 64

// DefaultShardContexts is the default per-shard context cap of a
// CacheShards pool: 128 contexts × 64 shards = 8192 pooled adaptation
// caches before eviction starts. Design sweeps stay far below it; a
// stream of distinct sets churns through it, which is the point — the
// pool's memory is bounded by the cap, not by the sets it has seen.
const DefaultShardContexts = 128

// CacheShards is a concurrency-safe pool of AdaptationCaches keyed by
// the canonical analysis context (Config plus the analysis-relevant
// fields of the HI/LO task partition). Design sweeps that evaluate the
// same drawn set under several configurations — the Fig. 3 campaign's
// panels, the FMS design walks — resolve the same shared cache from any
// worker and reuse each other's memoized eq. (3)/(5)/(7) quantities,
// where per-worker Scratch caches would each redo them.
//
// Each shard is a small LRU: when a shard exceeds its per-shard context
// cap the least-recently-resolved context is evicted (its hit/miss
// totals fold into the pool's retired statistics, so Stats() stays
// monotone across evictions). A long-lived pool therefore holds at
// most cap×64 adaptation caches no matter how many distinct sets reach
// it. Entries own private copies of the task slices, so
// callers may pass views into per-worker arenas that are recycled
// immediately after Get returns.
//
// The context identity is order-sensitive (task.SameTasksOrdered): the
// pooled caches memoize floating-point bounds whose bit patterns depend
// on summation order, so two orderings of the same multiset must NOT
// share a cache. Callers that want permutations to collide
// canonicalize the task order with task.SortCanonical before reaching
// this pool.
type CacheShards struct {
	perShard int
	clock    atomic.Uint64
	shards   [shardCount]cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[uint64][]*shardEntry
	n  int
	// retired accumulates the statistics of evicted caches so Stats()
	// never goes backwards when the LRU turns over.
	retired CacheStats
}

// shardEntry pairs one canonical context with its shared cache. The
// context fields are the collision guard: two contexts with equal
// hashes still only share a cache when every analysis-relevant field
// matches exactly. lastUse is the pool-wide LRU clock tick of the most
// recent resolve, written under the shard lock.
type shardEntry struct {
	cfg     Config
	hi, lo  []task.Task
	cache   *AdaptationCache
	lastUse uint64
}

// NewCacheShards returns an empty pool with the default per-shard
// context cap (DefaultShardContexts).
func NewCacheShards() *CacheShards { return NewCacheShardsCap(DefaultShardContexts) }

// NewCacheShardsCap returns an empty pool evicting beyond perShard
// contexts per shard; perShard <= 0 means unbounded (the pre-LRU
// behavior, for short-lived sweeps that want every context retained).
func NewCacheShardsCap(perShard int) *CacheShards {
	return &CacheShards{perShard: perShard}
}

// contextHash hashes the analysis-relevant context: the Config and the
// ordered analysis tuples of the HI and LO partitions (order-sensitive
// on purpose; see the type comment). Task names are deliberately
// excluded — restamped clones of a set analyze identically — and so is
// slice identity: equal parameters mean equal bounds.
func contextHash(cfg Config, hi, lo []task.Task) uint64 {
	h := uint64(0xf1bbcdcbfa53e0bd) // arbitrary odd offset for this keyspace
	w := uint64(cfg.OperationHours) << 1
	if cfg.AssumeFullWCET {
		w |= 1
	}
	h = task.HashTasksOrdered(h^w, hi)
	h = task.HashTasksOrdered(h, lo)
	return h
}

// Get resolves the shared cache of the analysis context, creating it on
// first use and evicting the shard's least-recently-used context when
// the per-shard cap is exceeded. The returned cache is safe for
// concurrent use (it carries its own lock); the shard lock covers only
// the probe. hi and lo are copied on insert, never retained. A returned
// cache stays valid after its entry is evicted — eviction drops the
// pool's reference, not the cache — so a concurrent holder is never
// invalidated mid-analysis.
func (s *CacheShards) Get(cfg Config, hi, lo []task.Task) *AdaptationCache {
	h := contextHash(cfg, hi, lo)
	sh := &s.shards[h&(shardCount-1)]
	m := safetyView.Get()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*shardEntry)
	}
	for _, e := range sh.m[h] {
		if e.cfg == cfg && task.SameTasksOrdered(e.hi, hi) && task.SameTasksOrdered(e.lo, lo) {
			m.shardHits.Inc()
			e.lastUse = s.clock.Add(1)
			return e.cache
		}
	}
	m.shardMisses.Inc()
	if s.perShard > 0 && sh.n >= s.perShard {
		sh.evictLRU()
		m.shardEvictions.Inc()
	}
	e := &shardEntry{
		cfg: cfg,
		hi:  append([]task.Task(nil), hi...),
		lo:  append([]task.Task(nil), lo...),
	}
	e.cache = NewAdaptationCache(cfg, e.hi, e.lo)
	e.lastUse = s.clock.Add(1)
	sh.m[h] = append(sh.m[h], e)
	sh.n++
	return e.cache
}

// evictLRU removes the shard's least-recently-used entry, folding its
// cache statistics into the retired totals. Called with the shard lock
// held. The scan is linear over the shard's entries; it only runs on the
// miss path, where the subsequent cache construction dominates anyway.
func (sh *cacheShard) evictLRU() {
	var (
		oldHash uint64
		oldIdx  = -1
		oldUse  uint64
	)
	for hash, es := range sh.m {
		for i, e := range es {
			if oldIdx < 0 || e.lastUse < oldUse {
				oldHash, oldIdx, oldUse = hash, i, e.lastUse
			}
		}
	}
	if oldIdx < 0 {
		return
	}
	es := sh.m[oldHash]
	st := es[oldIdx].cache.Stats()
	sh.retired.Hits += st.Hits
	sh.retired.Misses += st.Misses
	sh.retired.Evictions++
	es[oldIdx] = es[len(es)-1]
	es = es[:len(es)-1]
	if len(es) == 0 {
		delete(sh.m, oldHash)
	} else {
		sh.m[oldHash] = es
	}
	sh.n--
}

// Contexts returns the number of distinct analysis contexts currently
// pooled (evicted contexts no longer count).
func (s *CacheShards) Contexts() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Stats aggregates the hit/miss counters of every pooled cache plus the
// totals of evicted ones, and reports how many contexts the LRU has
// evicted. The aggregate is monotone: eviction moves a cache's counts
// into the retired totals instead of dropping them.
func (s *CacheShards) Stats() CacheStats {
	var agg CacheStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		agg.Hits += sh.retired.Hits
		agg.Misses += sh.retired.Misses
		agg.Evictions += sh.retired.Evictions
		for _, es := range sh.m {
			for _, e := range es {
				st := e.cache.Stats()
				agg.Hits += st.Hits
				agg.Misses += st.Misses
			}
		}
		sh.mu.Unlock()
	}
	return agg
}
