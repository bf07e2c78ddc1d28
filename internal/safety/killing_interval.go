package safety

import (
	"math"
	"math/bits"

	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// This file bounds eq. (5) from both sides without visiting its points.
//
// Every eq. (5) term is 1 − e^x with x = logR(α) + log(1 − f_i^{n_i}) ≤ 0.
// On [x₀, 0] the concave function 1 − e^x lies between its chord and its
// tangent at 0:
//
//	c·(−x) ≤ 1 − e^x ≤ −x,   c = (1 − e^{x₀})/(−x₀),
//
// so one LO task's terms sum to within [c·Σ(−x), Σ(−x)] once x₀ is the
// most negative exponent of the task. logR(α) = Σ_j r_j(α)·logTerm_j only
// grows more negative with α, so x₀ sits at the largest point: t, or α₁
// when an arbitrary deadline D > T + n·C puts α₁ after t. Σ(−x) is linear
// in the integer round counts,
//
//	Σ_α(−x) = Σ_j (−logTerm_j)·Σ_α r_j(α) + r·(−log(1 − f_i^{n_i})),
//
// and over the tail points α_m = t − n·C − m·T + D each HI staircase
// count r_j(α_m) = ⌊(α_m − n′·C_j)/T_j⌋ + 1 is a floor of an arithmetic
// progression, so Σ_m r_j(α_m) is a floor sum that floorSum evaluates
// exactly in O(log T) steps. The interval therefore costs
// O(|τ_LO|·|τ_HI|·log T) integer operations whatever the horizon and the
// periods, against the exact kernel's O(r_LO·|τ_HI|) sweep.
//
// The round-count sums are exact 128-bit integers (they reach ~1e21 at
// 1 µs periods over 10 h); everything after them is float64, and each
// endpoint is widened by a bound on its own rounding (intervalSlack).
// Settling a probe additionally grants the exact kernel an error of
// kernelMargin, the one quantity the interval cannot derive itself.

// kernelMargin is δ, the relative error granted to the exact eq. (5)
// kernel (killing_fast.go) against the value it approximates. The kernel
// agrees with the naive per-point evaluation to ≤ 1e-12
// (TestKillingKernelDifferential); δ is 1000 times that. A probe is only
// settled by the interval when the requirement lies outside
// [lo·(1−δ), hi·(1+δ)].
const kernelMargin = 1e-9

// intervalSlack returns the relative rounding bound of the interval's
// endpoints before the margin δ, for nHI HI and nLO LO tasks. Every
// summed term is a nonnegative product whose factors carry at most four
// roundings (two in the 128-bit count conversion, one in the chord
// factor, one in the division by OS), and recursive summation of k
// nonnegative terms adds at most k−1 more, so nHI + nLO + 8 unit
// roundoffs bound each endpoint; the factor 2 absorbs the second-order
// terms. The exponent x₀ is a sum of nHI + 1 rounded terms, so the same
// bound covers it.
func intervalSlack(nHI, nLO int) float64 {
	const u = 0x1p-53
	return 2 * float64(nHI+nLO+8) * u
}

// KillingIntervalUniform returns an interval [lo, hi] that contains every
// value KillingPFHLOUniform(loTasks, nLO, adapt) can return: the
// chord/tangent bounds on eq. (5) widened by their own rounding error and
// by the kernel margin δ. It costs O(|τ_LO|·|τ_HI|·log T), independent of
// the horizon, so a question "is pfh(LO) < PFH_LO?" whose requirement
// falls outside [lo, hi] needs no sweep (AdaptationCache.MeetsLO).
func (c Config) KillingIntervalUniform(loTasks []task.Task, nLO int, adapt *Adaptation) (lo, hi float64) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	t := c.Horizon()
	slack := intervalSlack(len(adapt.hi), len(loTasks))
	logRt := adapt.logR(t)
	var loSum, hiSum float64
	for _, lt := range loTasks {
		r := c.Rounds(lt, nLO, t)
		if r == 0 {
			continue
		}
		log1mq := 0.0
		if f := lt.FailProb; f > 0 {
			log1mq = prob.Log1mPow(f, nLO)
		}
		// Σ_α(−x) over the task's r points: the ∪{t} member plus the
		// tail m = 1 .. r−1.
		alpha1 := t - c.effectiveRoundCost(lt.WCET, nLO) - lt.Period + lt.Deadline
		negX := float64(r) * -log1mq
		for j, h := range adapt.hi {
			if adapt.logTerm[j] == 0 {
				continue
			}
			cost := c.effectiveRoundCost(h.WCET, adapt.nprime[j])
			n := tailRounds(r-1, alpha1-cost, lt.Period, h.Period)
			n = n.add(u128{lo: uint64(c.Rounds(h, adapt.nprime[j], t))})
			negX += n.float() * -adapt.logTerm[j]
		}
		// x₀: the exponent at the largest point, pushed further from 0
		// by its own rounding so the chord stays below every term.
		x0 := logRt + log1mq
		if r > 1 && alpha1 > t {
			x0 = adapt.logR(alpha1) + log1mq
		}
		x0 *= 1 + slack
		chord := 1.0
		if x0 < 0 {
			chord = -math.Expm1(x0) / -x0
		}
		loSum += chord * negX
		hiSum += negX
	}
	os := float64(c.OperationHours)
	return loSum / os * (1 - slack) * (1 - kernelMargin), hiSum / os * (1 + slack) * (1 + kernelMargin)
}

// tailRounds returns Σ_{m=0}^{k−1} r_j(a − m·T), the HI staircase's round
// counts over k tail points spaced T apart from a = α₁ − n′·C_j down,
// where r_j(x) = ⌊x/T_j⌋ + 1 for x ≥ 0 and 0 below. Only the first
// M = min(k, ⌊a/T⌋ + 1) points have x ≥ 0; reversing them from the lowest,
// b = a − (M−1)·T, turns the sum into M + Σ_{i<M} ⌊(T·i + b)/T_j⌋.
func tailRounds(k int64, a, T, Tj timeunit.Time) u128 {
	if k <= 0 || a < 0 {
		return u128{}
	}
	M := min(k, int64(a)/int64(T)+1)
	b := int64(a) - (M-1)*int64(T)
	return floorSum(uint64(M), uint64(Tj), uint64(T), uint64(b)).add(u128{lo: uint64(M)})
}

// u128 is an unsigned 128-bit integer hi·2⁶⁴ + lo, wide enough for every
// round-count sum of eq. (5): at most (t/T + 1)·(t/T_j + 1) < 2¹²⁸ for
// any int64 horizon.
type u128 struct{ hi, lo uint64 }

func (x u128) add(y u128) u128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	return u128{x.hi + y.hi + carry, lo}
}

// mul returns x·y; the caller guarantees that the product fits.
func (x u128) mul(y uint64) u128 {
	hi, lo := bits.Mul64(x.lo, y)
	return u128{hi + x.hi*y, lo}
}

// float converts x with relative error ≤ 2 unit roundoffs.
func (x u128) float() float64 { return float64(x.hi)*0x1p64 + float64(x.lo) }

// floorSum returns Σ_{i=0}^{n−1} ⌊(a·i + b)/m⌋ for m ≥ 1 by the
// Euclid-like reduction: peel off ⌊a/m⌋ and ⌊b/m⌋, then count the same
// lattice points column-wise with the roles of a and m swapped, which
// shrinks the pair like Euclid's gcd — O(log min(a, m)) rounds. Every
// partial sum is a part of the result, so nothing overflows while the
// result fits 128 bits.
func floorSum(n, m, a, b uint64) u128 {
	var sum u128
	for n > 0 {
		if a >= m {
			hi, lo := bits.Mul64(n, n-1)
			tri := u128{hi >> 1, lo>>1 | hi<<63} // n(n−1)/2
			sum = sum.add(tri.mul(a / m))
			a %= m
		}
		if b >= m {
			hi, lo := bits.Mul64(n, b/m)
			sum = sum.add(u128{hi, lo})
			b %= m
		}
		// y = a·n + b < m·(n+1), so ⌊y/m⌋ ≤ n fits 64 bits.
		hi, lo := bits.Mul64(a, n)
		lo, carry := bits.Add64(lo, b, 0)
		hi += carry
		if hi == 0 && lo < m {
			break
		}
		n, b = bits.Div64(hi, lo, m)
		m, a = a, m
	}
	return sum
}
