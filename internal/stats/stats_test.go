package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilson95KnownValues(t *testing.T) {
	// k=0: the interval starts at exactly 0 and excludes large p.
	iv := Wilson95(0, 500)
	if iv.Lo != 0 {
		t.Errorf("Lo = %v", iv.Lo)
	}
	if iv.Hi < 0.001 || iv.Hi > 0.02 {
		t.Errorf("Hi = %v, want ≈ 0.0076", iv.Hi)
	}
	// k=n mirrors k=0.
	iv2 := Wilson95(500, 500)
	if iv2.Hi != 1 {
		t.Errorf("Hi = %v", iv2.Hi)
	}
	if math.Abs((1-iv2.Lo)-iv.Hi) > 1e-12 {
		t.Errorf("asymmetric mirror: %v vs %v", 1-iv2.Lo, iv.Hi)
	}
	// Textbook value: k=5, n=10 → approx [0.237, 0.763].
	iv3 := Wilson95(5, 10)
	if math.Abs(iv3.Lo-0.2366) > 0.002 || math.Abs(iv3.Hi-0.7634) > 0.002 {
		t.Errorf("Wilson(5,10) = %v", iv3)
	}
}

func TestWilsonPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Wilson95(0, 0) },
		func() { Wilson95(-1, 10) },
		func() { Wilson95(11, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Properties: the interval is within [0,1], contains the point estimate,
// and shrinks as n grows.
func TestWilsonProperties(t *testing.T) {
	f := func(k16, n16 uint16) bool {
		n := int(n16%1000) + 1
		k := int(k16) % (n + 1)
		iv := Wilson95(k, n)
		p := float64(k) / float64(n)
		if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Hi {
			return false
		}
		if !iv.Contains(p) {
			return false
		}
		big := Wilson95(k*10, n*10)
		return big.Hi-big.Lo <= iv.Hi-iv.Lo+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 0.2, Hi: 0.4}
	if !iv.Contains(0.3) || iv.Contains(0.5) || iv.Contains(0.1) {
		t.Error("Contains wrong")
	}
	if iv.String() != "[0.200, 0.400]" {
		t.Errorf("String = %q", iv.String())
	}
}
