package safety

import (
	"fmt"
	"math"
)

// MinAdaptProfileLinear is the reference linear scan of the line-4
// search: it evaluates pfh(LO) for n′ = 1, 2, ... until the requirement
// is met, after a Kill-mode check of the no-kill limit
// (Config.KillingPFHLOLimit) that the bisected search does without.
// Differential tests pin the bisection variant to it; analyses should
// call MinAdaptProfile.
func (c *AdaptationCache) MinAdaptProfileLinear(mode AdaptMode, nLO int, df float64, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	// Fail fast when no profile can meet the requirement: the killing
	// bound never drops below its n′ → ∞ limit.
	if mode == Kill {
		ns := make([]int, len(c.lo))
		for i := range ns {
			ns[i] = nLO
		}
		if limit := c.cfg.KillingPFHLOLimit(c.lo, ns); limit >= requirement {
			return 0, fmt.Errorf("safety: killing cannot keep pfh(LO) below %g: the no-kill limit is already %g", requirement, limit)
		}
	}
	for n := 1; n <= MaxProfile; n++ {
		pfh, err := c.PFHLOUniform(mode, nLO, n, df)
		if err != nil {
			return 0, err
		}
		if pfh < requirement {
			return n, nil
		}
	}
	return 0, fmt.Errorf("safety: no adaptation profile <= %d keeps pfh(LO) below %g under %v",
		MaxProfile, requirement, mode)
}
