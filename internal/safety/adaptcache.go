package safety

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/task"
)

// AdaptationCache memoizes, for one fixed analysis context (Config, HI
// tasks, LO tasks), the two values the FT-S searches read more than once:
// the eq. (3) Adaptation model of each n′, shared by every kill and
// degrade probe at n′, and the exact eq. (5) bound of each (n′, nLO),
// which design-space sweeps (internal/explore) re-read across tests S.
// Eq. (7) is evaluated from the memoized model on each call.
//
// PFHLOUniform reads a value that gets reported; MeetsLO answers line 4's
// question. The cache is safe for concurrent use; its memo hits and
// misses go to the safety.cache.hits and .misses counters.
type AdaptationCache struct {
	cfg Config
	hi  []task.Task
	lo  []task.Task

	mu     sync.Mutex
	models map[int]*Adaptation // n′ → eq. (3) model
	kill   map[[2]int]float64  // (n′, nLO) → eq. (5) bound
	// free pools retired Adaptation models across Reset calls so pooled
	// sweeps (the Fig. 3 campaign, explore) rebuild models without
	// reallocating their profile/logTerm slices; scr is the
	// boundary-merge kernel scratch, used under mu.
	free []*Adaptation
	scr  kernelScratch
}

// NewAdaptationCache builds an empty cache for the given analysis
// context. The task slices must not be mutated while the cache is live.
func NewAdaptationCache(cfg Config, hiTasks, loTasks []task.Task) *AdaptationCache {
	return &AdaptationCache{
		cfg: cfg, hi: hiTasks, lo: loTasks,
		models: make(map[int]*Adaptation),
		kill:   make(map[[2]int]float64),
	}
}

// Reset rebinds the cache to a new analysis context, invalidating every
// memoized model and bound while keeping the allocated storage: the maps
// retain their buckets and the retired Adaptation models go to a free
// pool for reuse, so re-running Algorithm 1 on a stream of task sets
// (the Fig. 3 campaign engine) is allocation-free in the steady state.
// The task slices must not be mutated while the cache is live.
func (c *AdaptationCache) Reset(cfg Config, hiTasks, loTasks []task.Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg, c.hi, c.lo = cfg, hiTasks, loTasks
	for n, a := range c.models {
		c.free = append(c.free, a)
		delete(c.models, n)
	}
	clear(c.kill)
}

func (c *AdaptationCache) hit()  { safetyView.Get().cacheHits.Inc() }
func (c *AdaptationCache) miss() { safetyView.Get().cacheMisses.Inc() }

// Uniform returns the (memoized) uniform-profile Adaptation model for n′.
func (c *AdaptationCache) Uniform(nprime int) (*Adaptation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uniformLocked(nprime)
}

func (c *AdaptationCache) uniformLocked(nprime int) (*Adaptation, error) {
	if a, ok := c.models[nprime]; ok {
		c.hit()
		return a, nil
	}
	var a *Adaptation
	if n := len(c.free); n > 0 {
		a, c.free = c.free[n-1], c.free[:n-1]
	} else {
		a = new(Adaptation)
	}
	a, err := a.init(c.cfg, c.hi, nil, nprime)
	if err != nil {
		return nil, err
	}
	c.miss()
	c.models[nprime] = a
	return a, nil
}

// killingPFHLOUniform returns the (memoized) eq. (5) bound for the cached
// LO tasks under the uniform profiles (nLO, n′).
func (c *AdaptationCache) killingPFHLOUniform(nLO, nprime int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := [2]int{nprime, nLO}
	if v, ok := c.kill[key]; ok {
		c.hit()
		return v, nil
	}
	a, err := c.uniformLocked(nprime)
	if err != nil {
		return 0, err
	}
	return c.sweepKillLocked(nLO, nprime, a), nil
}

// sweepKillLocked runs the exact eq. (5) kernel at (nLO, n′) on the
// model a of n′ and memoizes the value.
func (c *AdaptationCache) sweepKillLocked(nLO, nprime int, a *Adaptation) float64 {
	v := c.cfg.killingPFHLOFast(c.lo, nil, nLO, a, &c.scr)
	c.kill[[2]int{nprime, nLO}] = v
	return v
}

// meetsKill is MeetsLO in Kill mode for a finite requirement. A memoized
// exact value decides directly. Otherwise the certified interval
// (Config.KillingIntervalUniform) settles the probe when the requirement
// lies outside it, and only a requirement inside it pays the exact sweep,
// whose value is memoized for the pfh(LO) a verdict reports. A settled
// answer equals the exact comparison: every value the kernel can return
// lies in the interval. An exact "met" stands only for a requirement
// above the no-kill limit (Config.KillingPFHLOLimit): no pfh(n′) lies
// below that limit (Lemma 3.3), but where the kill probability has
// vanished the kernel can round a value at the limit to just below it.
func (c *AdaptationCache) meetsKill(nLO, nprime int, requirement float64) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.kill[[2]int{nprime, nLO}]
	if ok {
		c.hit()
	} else {
		a, err := c.uniformLocked(nprime)
		if err != nil {
			return false, err
		}
		m := safetyView.Get()
		if lo, hi := c.cfg.KillingIntervalUniform(c.lo, nLO, a); requirement > hi || requirement < lo {
			m.killSettled.Inc()
			return requirement > hi, nil
		}
		m.killFallbacks.Inc()
		v = c.sweepKillLocked(nLO, nprime, a)
	}
	return v < requirement && requirement > c.cfg.killingPFHLOLimit(c.lo, nil, nLO), nil
}

// degradationPFHLOUniform returns the eq. (7) bound for the cached LO
// tasks under the uniform profiles (nLO, n′), evaluated from the memoized
// eq. (3) model of n′. df only scales the post-trigger service, not the
// bound (eq. 7 uses ω(1, t)); it is still validated to keep the contract
// of Config.DegradationPFHLO.
func (c *AdaptationCache) degradationPFHLOUniform(nLO, nprime int, df float64) (float64, error) {
	if df <= 1 {
		return 0, fmt.Errorf("safety: degradation factor must be > 1, got %g", df)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a, err := c.uniformLocked(nprime)
	if err != nil {
		return 0, err
	}
	return c.cfg.degradationPFHLO(c.lo, nil, nLO, a, df), nil
}

// MinAdaptProfile computes line 4 of Algorithm 1 on the cached (HI, LO)
// context,
//
//	n¹_HI ← inf{ n′ ∈ ℕ : pfh(LO) < PFH_LO }   (eq. 5 or eq. 7),
//
// the smallest uniform adaptation profile of the HI tasks that keeps the
// LO tasks at profile nLO safe. df is read only in Degrade mode, and a
// +Inf requirement is met by n′ = 1. Both pfh(LO) bounds are non-increasing in the uniform adaptation
// profile (Lemma 3.3/3.4: a larger n′ adapts the LO tasks less often),
// so MinProfile finds the infimum in O(log n¹) MeetsLO probes instead of
// the reference linear scan's n¹ (kept as MinAdaptProfileLinear and
// pinned to this search by TestMinAdaptProfileBisectionDifferential).
// The monotonicity precondition itself is pinned by
// TestKillingPFHLOMonotoneInNPrime / TestDegradationPFHLOMonotoneInNPrime.
// A requirement that no profile meets fails every probe, and the search
// reports an error; so does an unknown mode.
func (c *AdaptationCache) MinAdaptProfile(mode AdaptMode, nLO int, df float64, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	probes := safetyView.Get().minAdaptProbes
	n, err := MinProfile(func(n int) (bool, error) {
		probes.Inc()
		return c.MeetsLO(mode, nLO, n, df, requirement)
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("safety: no adaptation profile <= %d keeps pfh(LO) below %g under %v",
			MaxProfile, requirement, mode)
	}
	return n, err
}

// MeetsLO answers line 4's question at one uniform adaptation profile n′:
// is pfh(LO) < PFH_LO? An +Inf requirement (levels D/E) is met without
// evaluating a bound; otherwise the mode's bound must lie strictly below
// the requirement. In Kill mode a certified interval around eq. (5)
// decides the question whenever the requirement falls outside it
// (meetsKill), so the exact sweep runs only for the rare probe whose
// requirement is within the interval's width of the bound, and for the
// value a verdict reports. Because the bound is non-increasing in n′
// (Lemma 3.3/3.4), one probe at n′ = n²_HI decides Algorithm 1's verdict
// outright,
//
//	n¹_HI ≤ n²_HI  ⇔  MeetsLO(n²_HI),
//
// which is how verdict-only sweeps (the Fig. 3 campaign engine) skip the
// line-4 search. A mode other than Kill or Degrade is an error.
func (c *AdaptationCache) MeetsLO(mode AdaptMode, nLO, nprime int, df, requirement float64) (bool, error) {
	switch {
	case mode != Kill && mode != Degrade:
		return false, unknownMode(mode)
	case math.IsInf(requirement, 1):
		return true, nil
	case mode == Kill:
		return c.meetsKill(nLO, nprime, requirement)
	}
	v, err := c.degradationPFHLOUniform(nLO, nprime, df)
	return err == nil && v < requirement, err
}

// PFHLOUniform evaluates the pfh(LO) bound of one adaptation mode at a
// single uniform profile n′ — eq. (5) for killing, memoized, and eq. (7)
// for degradation. It is the way to read a value that gets reported;
// decisions go through MeetsLO. A mode other than Kill or Degrade is an
// error.
func (c *AdaptationCache) PFHLOUniform(mode AdaptMode, nLO, nprime int, df float64) (float64, error) {
	switch mode {
	case Kill:
		return c.killingPFHLOUniform(nLO, nprime)
	case Degrade:
		return c.degradationPFHLOUniform(nLO, nprime, df)
	}
	return 0, unknownMode(mode)
}

// unknownMode is the error of a mode other than Kill or Degrade.
func unknownMode(mode AdaptMode) error {
	return fmt.Errorf("safety: unknown adaptation mode %d", int(mode))
}
