// Package prob provides the numerically careful probability arithmetic the
// safety analyses need.
//
// The quantities in the paper's Lemmas 3.1–3.4 mix extremes that defeat
// naive floating point: per-round failure probabilities f^n down to 1e-45,
// round counts r up to ~1e5 per hour, and survivor probabilities of the
// form (1 − f^{n'})^r that sit within 1e-15 of 1. Everything here works in
// the log domain with log1p/expm1 so that both p and 1−p retain full
// relative precision.
package prob

import (
	"fmt"
	"math"
)

// P is a probability in [0, 1]. A plain float64 — the type alias exists to
// make signatures in the safety package self-describing.
type P = float64

// Validate returns an error unless p is a probability in [0, 1].
func Validate(p P) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("prob: %g is not a probability in [0,1]", p)
	}
	return nil
}

// Pow returns f^n for a probability f and non-negative integer n, computed
// in the log domain so that e.g. (1e-5)^9 = 1e-45 is exact to full relative
// precision rather than accumulating multiplication error.
func Pow(f P, n int) P {
	switch {
	case n < 0:
		panic("prob: negative exponent")
	case n == 0:
		return 1
	case f == 0:
		return 0
	case f == 1:
		return 1
	}
	return math.Exp(float64(n) * math.Log(f))
}

// Log1mPow returns log(1 − f^n) without cancellation, valid for f ∈ [0, 1)
// and n ≥ 1. This is the per-round log-survivor probability in eq. (3).
func Log1mPow(f P, n int) float64 {
	if f < 0 || f >= 1 {
		panic(fmt.Sprintf("prob: Log1mPow needs f in [0,1), got %g", f))
	}
	if n < 1 {
		panic("prob: Log1mPow needs n >= 1")
	}
	if f == 0 {
		return 0
	}
	// log(1 − e^{n·log f}) via log1p. n·log f < 0 always, so e^{...} < 1.
	return math.Log1p(-math.Exp(float64(n) * math.Log(f)))
}

// OneMinusExp returns 1 − e^x for x ≤ 0 with full precision near 0,
// i.e. -expm1(x).
func OneMinusExp(x float64) P {
	if x > 0 {
		panic(fmt.Sprintf("prob: OneMinusExp needs x <= 0, got %g", x))
	}
	return -math.Expm1(x)
}

// OneMinusExpFast is OneMinusExp with a polynomial fast path for small
// arguments: for |x| ≤ 1e-3 it evaluates the degree-4 Taylor expansion of
// 1 − e^x, whose truncation error is below |x|⁴/120 ≈ 8.4e-15 relative —
// well under the 1e-12 agreement the boundary-merge kernel guarantees
// against the naive eq. (5) evaluation. Hot loops that call 1 − e^x tens
// of thousands of times per bound (the π_i(t) sweep) use this; one-off
// evaluations keep OneMinusExp.
func OneMinusExpFast(x float64) P {
	if x > 0 {
		panic(fmt.Sprintf("prob: OneMinusExpFast needs x <= 0, got %g", x))
	}
	if x >= -1e-3 {
		// 1 − e^x = −x·(1 + x/2 + x²/6 + x³/24) + O(x⁵).
		return -x * (1 + x*(0.5+x*((1.0/6)+x*(1.0/24))))
	}
	return -math.Expm1(x)
}

// Log10 converts a probability to log10, the scale Figs. 1–2 plot pfh(LO)
// on. Log10(0) is -Inf, which renders as an unbounded "safe" value.
func Log10(p P) float64 {
	if p == 0 {
		return math.Inf(-1)
	}
	return math.Log10(p)
}

// KahanSum accumulates a sum of many small non-negative terms with
// compensated (Kahan) summation. pfh(LO) under killing (eq. 5) sums tens of
// thousands of terms each ~1e-5; plain summation would lose several digits.
type KahanSum struct {
	sum, c float64
}

// Add accumulates x.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Value returns the compensated sum.
func (k *KahanSum) Value() float64 { return k.sum }
