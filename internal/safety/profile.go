package safety

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// MaxProfile caps the profile searches. Re-execution profiles in practice
// are tiny (the paper's experiments use 2–4); the cap only guards against
// requirements that no finite amount of re-execution can meet (e.g. a task
// with f close to 1 whose rounds stop fitting in the hour).
const MaxProfile = 64

// MinProfile returns the least n ∈ [1, MaxProfile] that meets a
// predicate monotone in n (false…false true…true), or 0 when none does.
// It gallops n = 1, 2, 4, … until the predicate holds, then bisects the
// bracket: O(log n) probes instead of a linear scan's n. It is the
// search of line 4 of Algorithm 1 for uniform and per-task profiles
// alike; a probe error stops the search and is returned.
func MinProfile(meets func(n int) (bool, error)) (int, error) {
	// Gallop: double hi until meets(hi); (lo, hi] then brackets the
	// infimum, with lo = 0 the virtual never-meeting candidate.
	lo, hi := 0, 1
	for {
		hi = min(hi, MaxProfile)
		ok, err := meets(hi)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		if hi == MaxProfile {
			return 0, nil
		}
		lo, hi = hi, hi*2
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := meets(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// AdaptMode selects between the two LO-task adaptation mechanisms of the
// paper: killing (§3.3) and service degradation (§3.4).
type AdaptMode int

const (
	// Kill discards all LO tasks once triggered.
	Kill AdaptMode = iota
	// Degrade stretches all LO periods by the factor df once triggered.
	Degrade
)

// String returns "kill" or "degrade".
func (m AdaptMode) String() string {
	if m == Degrade {
		return "degrade"
	}
	return "kill"
}

// MinReexecProfile computes line 2 of Algorithm 1 for one task group:
//
//	n_χ ← inf{ n ∈ ℕ : pfh(χ) ≤ PFH_χ }   (eq. 2)
//
// i.e. the smallest uniform re-execution profile meeting the requirement.
// A +Inf requirement (levels D/E) is met by n = 1: those tasks execute
// once, as in Example 3.1. PlainPFH is non-increasing in n (each extra
// attempt multiplies the round failure probability by f < 1, while the
// round count can only shrink), so the linear scan finds the infimum.
func (c Config) MinReexecProfile(tasks []task.Task, requirement float64) (int, error) {
	if len(tasks) == 0 {
		return 1, nil
	}
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	for n := 1; n <= MaxProfile; n++ {
		if c.PlainPFHUniform(tasks, n) <= requirement {
			return n, nil
		}
	}
	return 0, fmt.Errorf("safety: no re-execution profile <= %d meets PFH requirement %g (pfh at cap: %g)",
		MaxProfile, requirement, c.PlainPFHUniform(tasks, MaxProfile))
}

// MinAdaptProfile computes line 4 of Algorithm 1:
//
//	n¹_HI ← inf{ n′ ∈ ℕ : pfh(LO) < PFH_LO }   (eq. 5 or eq. 7)
//
// the smallest uniform adaptation profile for the HI tasks that keeps the
// LO tasks safe, given the LO re-execution profile nLO. Both pfh(LO)
// bounds are non-increasing in n′ (larger n′ ⇒ LO tasks adapted less
// often), so MinProfile's gallop and bisection find the infimum. df is
// only used in Degrade mode. A +Inf requirement is met by n′ = 1.
//
// The search is served through a transient AdaptationCache; callers that run
// the search repeatedly on the same (HI, LO) context (design-space sweeps)
// should hold their own cache and call AdaptationCache.MinAdaptProfile so
// the per-n′ models and bounds are shared across searches.
func (c Config) MinAdaptProfile(mode AdaptMode, hiTasks, loTasks []task.Task, nLO int, df float64, requirement float64) (int, error) {
	return NewAdaptationCache(c, hiTasks, loTasks).MinAdaptProfile(mode, nLO, df, requirement)
}
