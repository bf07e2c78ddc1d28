package gen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/criticality"
)

func TestUUnifastSumsToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20} {
		for _, u := range []float64{0.1, 0.7, 1.0} {
			utils := make([]float64, n)
			uunifast(rng, utils, u)
			sum := 0.0
			for _, v := range utils {
				if v < 0 {
					t.Fatalf("negative utilization %g", v)
				}
				sum += v
			}
			if math.Abs(sum-u) > 1e-12 {
				t.Errorf("n=%d U=%g: sum = %g", n, u, sum)
			}
		}
	}
}

// The marginal distribution should spread: with n = 3 and U = 0.9 the
// largest share exceeds 0.5 in a healthy fraction of draws (a uniform
// simplex gives P ≈ 0.25·3 = 0.75... at least well above zero), while a
// naive "divide evenly" generator never would.
func TestUUnifastSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	large := 0
	const draws = 500
	utils := make([]float64, 3)
	for i := 0; i < draws; i++ {
		uunifast(rng, utils, 0.9)
		for _, v := range utils {
			if v > 0.45 {
				large++
				break
			}
		}
	}
	if large < draws/10 {
		t.Errorf("only %d/%d draws had a dominant task: distribution too flat", large, draws)
	}
}

func TestUUnifastTaskSet(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.7, 1e-5)
	s, err := UUnifastTaskSet(rng, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if math.Abs(s.Utilization()-0.7) > 0.01 {
		t.Errorf("U = %g, want ≈ 0.7 (integer-µs rounding only)", s.Utilization())
	}
	for _, tk := range s.Tasks() {
		if tk.Period < p.TMin || tk.Period > p.TMax {
			t.Errorf("period %v out of range", tk.Period)
		}
		if !tk.Implicit() {
			t.Error("tasks must be implicit-deadline")
		}
	}
}

func TestUUnifastTaskSetErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := PaperParams(criticality.LevelB, criticality.LevelD, 0.7, 1e-5)
	if _, err := UUnifastTaskSet(rng, 1, p); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := UUnifastTaskSet(rng, 0, p); err == nil {
		t.Error("n=0 accepted")
	}
	p.TargetU = 0
	if _, err := UUnifastTaskSet(rng, 3, p); err == nil {
		t.Error("U=0 accepted")
	}
	if _, err := UUnifastTaskSet(rng, 4, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
}
