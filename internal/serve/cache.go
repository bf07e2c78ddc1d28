package serve

import (
	"container/list"
	"sync"

	"repro/internal/task"
)

// vshardCount is the power-of-two shard width of the verdict cache.
// Hits take one shard mutex for a map probe plus an LRU touch; 16
// shards keep contention negligible at serve concurrency while the
// per-shard LRU lists stay short enough to reason about.
const vshardCount = 16

// ckey is the full verdict-cache key: the canonical task-multiset hash
// plus the analysis options. Distinct multisets colliding on the hash
// chain within one map slot, guarded by SameTasksCanonical.
type ckey struct {
	hash uint64
	opt  optKey
}

// ventry is one verdict with its collision guard (the canonical task
// tuples the verdict was computed from). An entry is born in flight,
// when a miss claims the analysis, and joins the shard's LRU list once
// settle stores the verdict; until then requests for the same multiset
// wait on wg instead of starting a second analysis.
type ventry struct {
	key   ckey
	tasks []task.Task
	v     Verdict
	err   error          // set by a failed analysis, whose entry is removed
	elem  *list.Element  // position in the shard's LRU list; nil in flight
	wg    sync.WaitGroup // done when the analysis settles
}

// vshard is one verdict-cache shard: a key-chained map plus an LRU
// list (front = most recent) of the settled entries.
type vshard struct {
	mu        sync.Mutex
	m         map[ckey][]*ventry
	lru       *list.List
	hits      uint64
	misses    uint64
	evictions uint64
}

// verdictCache is the sharded LRU verdict cache. cap is per shard and
// counts settled entries only; in-flight entries are bounded by the
// pipeline's admission limit.
type verdictCache struct {
	shards [vshardCount]vshard
	cap    int
}

// newVerdictCache builds a cache bounding totalEntries across shards
// (rounded up to a whole number per shard, minimum one).
func newVerdictCache(totalEntries int) *verdictCache {
	per := (totalEntries + vshardCount - 1) / vshardCount
	if per < 1 {
		per = 1
	}
	c := &verdictCache{cap: per}
	for i := range c.shards {
		c.shards[i].m = make(map[ckey][]*ventry)
		c.shards[i].lru = list.New()
	}
	return c
}

// find returns the entry of the multiset ts under k, or nil. ts may be
// in any order: the guard is order-insensitive, so permutations match.
// Called with the shard lock held.
func (sh *vshard) find(k ckey, ts []task.Task) *ventry {
	for _, e := range sh.m[k] {
		if task.SameTasksCanonical(e.tasks, ts) {
			return e
		}
	}
	return nil
}

// get probes the cache: a settled verdict is a hit (hit true, v set);
// otherwise e is the in-flight entry to wait for, or nil when there is
// none.
func (c *verdictCache) get(hash uint64, opt optKey, ts []task.Task) (v Verdict, e *ventry, hit bool) {
	sh := &c.shards[hash&(vshardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e = sh.find(ckey{hash: hash, opt: opt}, ts)
	if e == nil || e.elem == nil {
		return Verdict{}, e, false
	}
	sh.lru.MoveToFront(e.elem)
	sh.hits++
	return e.v, nil, true
}

// claim returns the entry of the canonical tasks ts if one exists
// (settled or in flight; lead false). Otherwise, if admit allows, it
// creates an in-flight entry that aliases ts — the canonicalized set's
// own slice, never mutated — and returns it with lead true: the caller
// must analyze and settle it. A refused admission returns nil.
func (c *verdictCache) claim(hash uint64, opt optKey, ts []task.Task, admit func() bool) (e *ventry, lead bool) {
	sh := &c.shards[hash&(vshardCount-1)]
	k := ckey{hash: hash, opt: opt}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.find(k, ts); e != nil {
		return e, false
	}
	if !admit() {
		return nil, false
	}
	e = &ventry{key: k, tasks: ts}
	e.wg.Add(1)
	sh.m[k] = append(sh.m[k], e)
	sh.misses++
	return e, true
}

// settle completes the in-flight entry e: on success it becomes a
// cached verdict at the front of the LRU list; on failure it is
// removed, so the next request analyzes afresh. Either way the
// requests waiting on e are released.
func (c *verdictCache) settle(e *ventry, v Verdict, err error) {
	sh := &c.shards[e.key.hash&(vshardCount-1)]
	sh.mu.Lock()
	e.v, e.err = v, err
	if err != nil {
		sh.unlink(e)
	} else {
		if sh.lru.Len() >= c.cap {
			sh.evictOldest()
		}
		e.elem = sh.lru.PushFront(e)
	}
	sh.mu.Unlock()
	e.wg.Done()
}

// evictOldest removes the shard's LRU entry. Called with the shard lock
// held.
func (sh *vshard) evictOldest() {
	back := sh.lru.Back()
	if back == nil {
		return
	}
	sh.lru.Remove(back)
	sh.unlink(back.Value.(*ventry))
	sh.evictions++
}

// unlink removes e from its key chain. Called with the shard lock held.
func (sh *vshard) unlink(e *ventry) {
	es := sh.m[e.key]
	for i, cand := range es {
		if cand == e {
			es[i] = es[len(es)-1]
			es = es[:len(es)-1]
			break
		}
	}
	if len(es) == 0 {
		delete(sh.m, e.key)
	} else {
		sh.m[e.key] = es
	}
}

// stats aggregates hit/miss/eviction counters and current occupancy.
func (c *verdictCache) stats() (hits, misses, evictions uint64, entries int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		evictions += sh.evictions
		entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return
}
