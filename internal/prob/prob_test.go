package prob

import (
	"math"
	"testing"
)

func almostEqual(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale
}

func TestValidate(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		if err := Validate(p); err != nil {
			t.Errorf("Validate(%v): %v", p, err)
		}
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if err := Validate(p); err == nil {
			t.Errorf("Validate(%v): expected error", p)
		}
	}
}

func TestPow(t *testing.T) {
	cases := []struct {
		f    float64
		n    int
		want float64
	}{
		{1e-5, 3, 1e-15},
		{1e-5, 1, 1e-5},
		{1e-3, 4, 1e-12},
		{0.5, 2, 0.25},
		{0, 5, 0},
		{1, 7, 1},
		{0.3, 0, 1},
	}
	for _, c := range cases {
		if got := Pow(c.f, c.n); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Pow(%v, %d) = %v, want %v", c.f, c.n, got, c.want)
		}
	}
}

func TestPowPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pow(0.5, -1)
}

func TestLog1mPow(t *testing.T) {
	// For tiny f^n, log(1-f^n) ≈ -f^n.
	got := Log1mPow(1e-5, 3)
	if !almostEqual(got, -1e-15, 1e-9) {
		t.Errorf("Log1mPow(1e-5,3) = %g, want ≈ -1e-15", got)
	}
	// Moderate case, cross-check against direct computation.
	want := math.Log(1 - math.Pow(0.3, 2))
	if got := Log1mPow(0.3, 2); !almostEqual(got, want, 1e-12) {
		t.Errorf("Log1mPow(0.3,2) = %g, want %g", got, want)
	}
	if got := Log1mPow(0, 3); got != 0 {
		t.Errorf("Log1mPow(0,3) = %g, want 0", got)
	}
}

func TestLog1mPowPanics(t *testing.T) {
	for _, c := range []struct {
		f float64
		n int
	}{{1, 1}, {-0.1, 1}, {0.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log1mPow(%v,%d): expected panic", c.f, c.n)
				}
			}()
			Log1mPow(c.f, c.n)
		}()
	}
}

func TestOneMinusExp(t *testing.T) {
	// 1 - e^{-1e-12} ≈ 1e-12; naive computation would return 1.000089e-12
	// or worse. Check relative accuracy.
	got := OneMinusExp(-1e-12)
	if !almostEqual(got, 1e-12, 1e-6) {
		t.Errorf("OneMinusExp(-1e-12) = %g", got)
	}
	if got := OneMinusExp(0); got != 0 {
		t.Errorf("OneMinusExp(0) = %g, want 0", got)
	}
	if got := OneMinusExp(math.Inf(-1)); got != 1 {
		t.Errorf("OneMinusExp(-inf) = %g, want 1", got)
	}
}

func TestLog10(t *testing.T) {
	if got := Log10(1e-11); !almostEqual(got, -11, 1e-12) {
		t.Errorf("Log10(1e-11) = %v", got)
	}
	if got := Log10(0); !math.IsInf(got, -1) {
		t.Errorf("Log10(0) = %v, want -Inf", got)
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// Sum 1e7 copies of 1e-5: exact answer 100. Kahan should be exact to
	// ~1 ulp; naive summation drifts noticeably.
	var k KahanSum
	for i := 0; i < 1e7; i++ {
		k.Add(1e-5)
	}
	if !almostEqual(k.Value(), 100, 1e-12) {
		t.Errorf("KahanSum = %.15g, want 100", k.Value())
	}
}

func TestKahanSumMatchesExactSmallCases(t *testing.T) {
	var k KahanSum
	for _, x := range []float64{1, 2, 3.5, 0.25} {
		k.Add(x)
	}
	if k.Value() != 6.75 {
		t.Errorf("KahanSum = %v, want 6.75", k.Value())
	}
}
