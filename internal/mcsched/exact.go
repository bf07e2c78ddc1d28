package mcsched

import (
	"math"
	"math/big"

	"repro/internal/criticality"
)

// Utilization tests near the boundary U = 1.
//
// The float64 sums of C/T terms carry rounding error, so a set whose
// exact utilization is 1 + 1/(T1·T2) can sum to exactly 1.0 and pass a
// "≤ 1" test. Every utilization here is a sum of integer-µs ratios, so
// each test is a statement about rationals: the float path decides only
// when its value clears 1 by more than its rounding bound, and the few
// sets inside that band are decided exactly with math/big.Rat.

// unitRoundoff is u = 2⁻⁵³, the relative rounding bound of one float64
// operation.
const unitRoundoff = 0x1p-53

// utilErr bounds the relative rounding error of a float64 utilization sum
// over a set of n tasks: each quotient C/T rounds once, and recursive
// summation of nonnegative terms adds at most n−1 roundings; the factor
// 2 leaves room for the roundings of whatever is computed from the sums.
func utilErr(n int) float64 { return 2 * float64(n+1) * unitRoundoff }

// utilRat returns U_class^mode = Σ C(mode)/T over the tasks of class,
// exactly.
func (s *MCSet) utilRat(class, mode criticality.Class) *big.Rat {
	sum := new(big.Rat)
	var term big.Rat
	for _, t := range s.tasks {
		if t.Class == class {
			sum.Add(sum, term.SetFrac64(int64(t.C(mode)), int64(t.Period)))
		}
	}
	return sum
}

// eq10 is the left-hand side of eq. (10) from U_HI^LO, U_LO^LO and
// U_HI^HI, +Inf when U_LO^LO ≥ 1. It is non-decreasing in each argument,
// so evaluating it at the corners of the sums' error boxes bounds the
// exact value from both sides.
func eq10(uHILO, uLOLO, uHIHI float64) float64 {
	if uLOLO >= 1 {
		return math.Inf(1)
	}
	x := uHILO / (1 - uLOLO)
	return math.Max(uHILO+uLOLO, uHIHI+x*uLOLO)
}

// eq10Exact decides eq. (10) over the exact rational utilizations:
// U_LO^LO < 1, U_HI^LO + U_LO^LO ≤ 1 and, multiplied through by
// 1 − U_LO^LO > 0, U_HI^HI·(1 − U_LO^LO) + U_HI^LO·U_LO^LO ≤ 1 − U_LO^LO.
func eq10Exact(s *MCSet) bool {
	a := s.utilRat(criticality.HI, criticality.LO)
	b := s.utilRat(criticality.LO, criticality.LO)
	c := s.utilRat(criticality.HI, criticality.HI)
	slack := new(big.Rat).Sub(big.NewRat(1, 1), b)
	if slack.Sign() <= 0 || new(big.Rat).Add(a, b).Cmp(big.NewRat(1, 1)) > 0 {
		return false
	}
	lhs := new(big.Rat).Mul(c, slack)
	lhs.Add(lhs, new(big.Rat).Mul(a, b))
	return lhs.Cmp(slack) <= 0
}
