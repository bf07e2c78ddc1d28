package safety

import (
	"fmt"
	"math"
)

// MinAdaptProfileLinear is the reference linear scan of the line-4
// search: it evaluates pfh(LO) for n′ = 1, 2, ... until the requirement
// is met. Kept verbatim so differential tests pin the bisection variant
// to it; analyses should call MinAdaptProfile.
func (c *AdaptationCache) MinAdaptProfileLinear(mode AdaptMode, nLO int, df float64, requirement float64) (int, error) {
	if math.IsInf(requirement, 1) {
		return 1, nil
	}
	if err := c.checkAdaptFeasible(mode, nLO, requirement); err != nil {
		return 0, err
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
