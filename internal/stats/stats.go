// Package stats provides the small statistical toolkit the experiment
// harness uses: binomial confidence intervals for acceptance ratios.
//
// Acceptance ratios in the Fig. 3 experiments are binomial proportions
// over 500 trials; the Wilson score interval is the standard choice there
// because it behaves sensibly at ratios near 0 and 1 (where the normal
// approximation degenerates), which is exactly where the paper's curves
// saturate.
package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the closed interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// String renders "[0.312, 0.401]".
func (iv Interval) String() string { return fmt.Sprintf("[%.3f, %.3f]", iv.Lo, iv.Hi) }

// z95 is the standard normal quantile for a two-sided 95% interval.
const z95 = 1.959963984540054

// Wilson95 returns the 95% Wilson score interval for a binomial
// proportion with successes k out of n trials. It panics on n < 1 or
// k outside [0, n].
func Wilson95(k, n int) Interval {
	if n < 1 {
		panic("stats: Wilson interval needs n >= 1")
	}
	if k < 0 || k > n {
		panic(fmt.Sprintf("stats: successes %d outside [0, %d]", k, n))
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z := float64(z95) // float64 arithmetic below, not exact constant folding
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo := center - half
	hi := center + half
	// At the boundaries the exact endpoints are 0 and 1; rounding in
	// center−half otherwise leaves ~1e-19 residue.
	if k == 0 || lo < 0 {
		lo = 0
	}
	if k == n || hi > 1 {
		hi = 1
	}
	return Interval{Lo: lo, Hi: hi}
}
