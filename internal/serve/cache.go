package serve

import (
	"container/list"
	"slices"
	"sync"

	"repro/internal/task"
)

// ckey is the full verdict-cache key: the canonical task-multiset hash
// plus the analysis options. Distinct multisets colliding on the hash
// chain within one map slot, guarded by SameTasksCanonical.
type ckey struct {
	hash uint64
	opt  optKey
}

// ventry is one verdict with its collision guard (the canonical task
// tuples the verdict was computed from). An entry is born in flight,
// when a miss claims the analysis, and joins the LRU list once settle
// stores the verdict; until then requests for the same multiset wait on
// wg instead of starting a second analysis.
type ventry struct {
	key   ckey
	tasks []task.Task
	v     Verdict
	err   error          // set by a failed analysis, whose entry is removed
	elem  *list.Element  // position in the LRU list; nil in flight
	wg    sync.WaitGroup // done when the analysis settles
}

// verdictCache is the LRU verdict cache: one mutex over a key-chained
// map and an LRU list (front = most recent) of the settled entries. cap
// bounds the settled entries exactly; in-flight entries are bounded by
// the pipeline's admission limit.
type verdictCache struct {
	mu        sync.Mutex
	m         map[ckey][]*ventry
	lru       *list.List
	cap       int
	hits      uint64
	misses    uint64
	evictions uint64
}

// newVerdictCache builds a cache holding at most entries (≥ 1) settled
// verdicts.
func newVerdictCache(entries int) *verdictCache {
	return &verdictCache{m: make(map[ckey][]*ventry), lru: list.New(), cap: entries}
}

// find returns the entry of the multiset ts under k, or nil. ts may be
// in any order: the guard is order-insensitive, so permutations match.
// Called with the lock held.
func (c *verdictCache) find(k ckey, ts []task.Task) *ventry {
	for _, e := range c.m[k] {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	e = c.find(ckey{hash: hash, opt: opt}, ts)
	if e == nil || e.elem == nil {
		return Verdict{}, e, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e.v, nil, true
}

// claim returns the entry of the canonical tasks ts if one exists
// (settled or in flight; lead false). Otherwise, if admit allows, it
// creates an in-flight entry that aliases ts — the canonicalized set's
// own slice, never mutated — and returns it with lead true: the caller
// must analyze and settle it. A refused admission returns nil.
func (c *verdictCache) claim(hash uint64, opt optKey, ts []task.Task, admit func() bool) (e *ventry, lead bool) {
	k := ckey{hash: hash, opt: opt}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.find(k, ts); e != nil {
		return e, false
	}
	if !admit() {
		return nil, false
	}
	e = &ventry{key: k, tasks: ts}
	e.wg.Add(1)
	c.m[k] = append(c.m[k], e)
	c.misses++
	return e, true
}

// settle completes the in-flight entry e: on success it becomes a
// cached verdict at the front of the LRU list, evicting the least
// recent one when the cache is full; on failure it is removed, so the
// next request analyzes afresh. Either way the requests waiting on e
// are released.
func (c *verdictCache) settle(e *ventry, v Verdict, err error) {
	c.mu.Lock()
	e.v, e.err = v, err
	if err != nil {
		c.unlink(e)
	} else {
		if c.lru.Len() >= c.cap {
			back := c.lru.Back()
			c.lru.Remove(back)
			c.unlink(back.Value.(*ventry))
			c.evictions++
		}
		e.elem = c.lru.PushFront(e)
	}
	c.mu.Unlock()
	e.wg.Done()
}

// unlink removes e from its key chain. Called with the lock held.
func (c *verdictCache) unlink(e *ventry) {
	if es := slices.DeleteFunc(c.m[e.key], func(x *ventry) bool { return x == e }); len(es) > 0 {
		c.m[e.key] = es
	} else {
		delete(c.m, e.key)
	}
}

// stats returns the hit/miss/eviction counters and the number of
// settled entries.
func (c *verdictCache) stats() (hits, misses, evictions uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.lru.Len()
}
