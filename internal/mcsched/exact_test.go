package mcsched

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/criticality"
	"repro/internal/timeunit"
)

// Tests of the exact utilization-boundary decisions (exact.go) against
// a big.Rat oracle that evaluates each test's definition directly.

// ratOracleEDF is EDFWorstCase's implicit-deadline condition Σ C(HI)/T ≤ 1
// over exact rationals.
func ratOracleEDF(s *MCSet) bool {
	u := new(big.Rat)
	for _, t := range s.Tasks() {
		u.Add(u, big.NewRat(int64(t.CHI), int64(t.Period)))
	}
	return u.Cmp(big.NewRat(1, 1)) <= 0
}

// ratOracleEDFVD is eq. (10) over exact rationals, written as the float
// Bound is: x = U_HI^LO/(1 − U_LO^LO), max{U_HI^LO + U_LO^LO,
// U_HI^HI + x·U_LO^LO} ≤ 1, and not schedulable when U_LO^LO ≥ 1.
func ratOracleEDFVD(s *MCSet) bool {
	util := func(class, mode criticality.Class) *big.Rat {
		u := new(big.Rat)
		for _, t := range s.Tasks() {
			if t.Class == class {
				u.Add(u, big.NewRat(int64(t.C(mode)), int64(t.Period)))
			}
		}
		return u
	}
	one := big.NewRat(1, 1)
	a, b, c := util(criticality.HI, criticality.LO), util(criticality.LO, criticality.LO), util(criticality.HI, criticality.HI)
	if b.Cmp(one) >= 0 {
		return false
	}
	x := new(big.Rat).Quo(a, new(big.Rat).Sub(one, b))
	hiMode := new(big.Rat).Add(c, new(big.Rat).Mul(x, b))
	return new(big.Rat).Add(a, b).Cmp(one) <= 0 && hiMode.Cmp(one) <= 0
}

// boundaryPair returns a HI and a LO task with co-prime periods T1, T2
// whose utilizations sum to exactly 1 + sign/(T1·T2): C1 solves
// C1·T2 ≡ sign (mod T1). ok is false when a WCET falls outside (0, T].
func boundaryPair(T1, T2 int64, sign int64) (hi, lo MCTask, ok bool) {
	inv := new(big.Int).ModInverse(big.NewInt(T2), big.NewInt(T1))
	if inv == nil {
		return hi, lo, false
	}
	C1 := inv.Int64()
	if sign < 0 {
		C1 = T1 - C1
	}
	num := new(big.Int).Mul(big.NewInt(T1), big.NewInt(T2))
	num.Add(num, big.NewInt(sign))
	num.Sub(num, new(big.Int).Mul(big.NewInt(C1), big.NewInt(T2)))
	C2 := new(big.Int).Quo(num, big.NewInt(T1)).Int64()
	if C1 <= 0 || C1 > T1 || C2 <= 0 || C2 > T2 {
		return hi, lo, false
	}
	hi = MCTask{Name: "h", Period: timeunit.Time(T1), Deadline: timeunit.Time(T1),
		CLO: timeunit.Time(C1), CHI: timeunit.Time(C1), Class: criticality.HI}
	lo = MCTask{Name: "l", Period: timeunit.Time(T2), Deadline: timeunit.Time(T2),
		CLO: timeunit.Time(C2), CHI: timeunit.Time(C2), Class: criticality.LO}
	return hi, lo, true
}

// The float64 sums of these sets are exactly 1.0 while their exact
// utilization is 1 + 1/(T1·T2): both tests must reject them, and accept
// the 1 − 1/(T1·T2) mirrors.
func TestUtilizationBoundaryExact(t *testing.T) {
	for _, c := range []struct {
		name   string
		T1, T2 int64
	}{
		{"EDF counterexample", 90_000_001, 70_000_003},    // C1 = 49,500,001, C2 = 31,500,001
		{"EDF-VD counterexample", 90_000_001, 70_000_025}, // C1 = 89,587,157, C2 = 321,101
	} {
		for _, sign := range []int64{1, -1} {
			hi, lo, ok := boundaryPair(c.T1, c.T2, sign)
			if !ok {
				t.Fatalf("%s: no boundary pair", c.name)
			}
			s := MustNewMCSet([]MCTask{hi, lo})
			want := sign < 0
			if got := (EDFWorstCase{}).Schedulable(s); got != want {
				t.Errorf("%s, U = 1%+d/(T1·T2): EDF says %v, want %v (%v)", c.name, sign, got, want, s.Tasks())
			}
			if got := (EDFVD{}).Schedulable(s); got != want {
				t.Errorf("%s, U = 1%+d/(T1·T2): EDF-VD says %v, want %v (%v)", c.name, sign, got, want, s.Tasks())
			}
		}
	}
}

// Random sets on both sides of U = 1 — the 1 ± 1/(T1·T2) pairs, and the
// same pairs with the HI task's C(LO) cut so eq. (10)'s HI-mode term is
// the binding one — must get the oracle's verdict from both tests.
func TestUtilizationBoundaryMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for checked < 2000 {
		T1 := 1_000 + rng.Int63n(200_000_000)
		T2 := 1_000 + rng.Int63n(200_000_000)
		sign := int64(1 - 2*rng.Intn(2))
		hi, lo, ok := boundaryPair(T1, T2, sign)
		if !ok {
			continue
		}
		if rng.Intn(2) == 0 {
			hi.CLO = 1 + timeunit.Time(rng.Int63n(int64(hi.CHI)))
		}
		s := MustNewMCSet([]MCTask{hi, lo})
		if got, want := (EDFWorstCase{}).Schedulable(s), ratOracleEDF(s); got != want {
			t.Fatalf("EDF says %v, oracle %v on %v", got, want, s.Tasks())
		}
		if got, want := (EDFVD{}).Schedulable(s), ratOracleEDFVD(s); got != want {
			t.Fatalf("EDF-VD says %v, oracle %v on %v", got, want, s.Tasks())
		}
		checked++
	}
	// Far from the boundary the float path decides; it must agree too.
	for trial := 0; trial < 500; trial++ {
		s := randomMCSet(rng)
		if got, want := (EDFWorstCase{}).Schedulable(s), ratOracleEDF(s); got != want {
			t.Fatalf("EDF says %v, oracle %v on %v", got, want, s.Tasks())
		}
		if got, want := (EDFVD{}).Schedulable(s), ratOracleEDFVD(s); got != want {
			t.Fatalf("EDF-VD says %v, oracle %v on %v", got, want, s.Tasks())
		}
	}
}
