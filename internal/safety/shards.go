package safety

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/task"
)

// CacheShards is a concurrency-safe pool of AdaptationCaches keyed by
// the analysis context (Config plus the analysis-relevant fields of the
// HI/LO task partition). Analyses of the same set — from any worker —
// resolve the same shared cache and reuse each other's memoized eq. (3)
// and (5) quantities.
//
// The pool is one LRU under one mutex: a key-chained map and a list of
// its entries (front = most recently resolved). It holds at most its cap
// of contexts; a miss beyond the cap evicts the least recently resolved
// one. Entries own private copies of the task slices, so callers may
// pass views into per-worker arenas that are recycled immediately after
// Get returns. The safety.shards.hits, .misses and .evictions counters
// record its traffic.
//
// The context identity is order-sensitive (task.SameTasksOrdered): the
// pooled caches memoize floating-point bounds whose bit patterns depend
// on summation order, so two orderings of the same multiset must NOT
// share a cache. Callers that want permutations to collide
// canonicalize the task order with task.SortCanonical before reaching
// this pool.
type CacheShards struct {
	mu  sync.Mutex
	m   map[uint64][]*poolEntry
	lru *list.List
	cap int
}

// poolEntry pairs one context with its shared cache. The context fields
// are the collision guard: two contexts with equal hashes only share a
// cache when every analysis-relevant field matches exactly.
type poolEntry struct {
	hash   uint64
	cfg    Config
	hi, lo []task.Task
	cache  *AdaptationCache
	elem   *list.Element
}

// NewCacheShards returns an empty pool holding at most 8,192 contexts:
// design sweeps stay far below it, and a stream of distinct sets churns
// through it, so the pool's memory is bounded by the cap, not by the
// sets it has seen.
func NewCacheShards() *CacheShards { return NewCacheShardsCap(8192) }

// NewCacheShardsCap returns an empty pool holding at most contexts
// (≥ 1) analysis contexts.
func NewCacheShardsCap(contexts int) *CacheShards {
	if contexts < 1 {
		panic("safety: a cache pool needs room for at least one context")
	}
	return &CacheShards{m: make(map[uint64][]*poolEntry), lru: list.New(), cap: contexts}
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
// first use and evicting the least recently resolved context when the
// pool is full. The returned cache is safe for concurrent use (it
// carries its own lock); the pool lock covers only the probe. hi and lo
// are copied on insert, never retained. A returned cache stays valid
// after its entry is evicted — eviction drops the pool's reference, not
// the cache — so a concurrent holder is never invalidated mid-analysis.
func (s *CacheShards) Get(cfg Config, hi, lo []task.Task) *AdaptationCache {
	h := contextHash(cfg, hi, lo)
	m := safetyView.Get()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.m[h] {
		if e.cfg == cfg && task.SameTasksOrdered(e.hi, hi) && task.SameTasksOrdered(e.lo, lo) {
			m.shardHits.Inc()
			s.lru.MoveToFront(e.elem)
			return e.cache
		}
	}
	m.shardMisses.Inc()
	if s.lru.Len() >= s.cap {
		old := s.lru.Remove(s.lru.Back()).(*poolEntry)
		if es := slices.DeleteFunc(s.m[old.hash], func(e *poolEntry) bool { return e == old }); len(es) > 0 {
			s.m[old.hash] = es
		} else {
			delete(s.m, old.hash)
		}
		m.shardEvictions.Inc()
	}
	e := &poolEntry{
		hash: h,
		cfg:  cfg,
		hi:   append([]task.Task(nil), hi...),
		lo:   append([]task.Task(nil), lo...),
	}
	e.cache = NewAdaptationCache(cfg, e.hi, e.lo)
	e.elem = s.lru.PushFront(e)
	s.m[h] = append(s.m[h], e)
	return e.cache
}

// Contexts returns the number of analysis contexts currently pooled
// (evicted contexts no longer count).
func (s *CacheShards) Contexts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
