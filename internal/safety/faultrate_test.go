package safety

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/timeunit"
)

func TestFaultRateValidate(t *testing.T) {
	if err := (FaultRate{PerHour: 1e-3}).Validate(); err != nil {
		t.Errorf("valid rate rejected: %v", err)
	}
	for _, r := range []float64{-1, math.NaN()} {
		if err := (FaultRate{PerHour: r}).Validate(); err == nil {
			t.Errorf("rate %v accepted", r)
		}
	}
}

func TestAttemptFailProbSmallRate(t *testing.T) {
	// λ·C ≪ 1: probability ≈ λ·C. A 36 ms attempt at λ = 1e-2/h exposes
	// 1e-5 hours: f ≈ 1e-7.
	r := FaultRate{PerHour: 1e-2}
	got := r.AttemptFailProb(timeunit.Milliseconds(36))
	want := 1e-7
	if math.Abs(got-want)/want > 1e-4 {
		t.Errorf("f = %g, want ≈ %g", got, want)
	}
}

func TestAttemptFailProbBoundaries(t *testing.T) {
	r := FaultRate{PerHour: 5}
	if got := r.AttemptFailProb(0); got != 0 {
		t.Errorf("zero exposure: f = %g", got)
	}
	if got := (FaultRate{PerHour: 0}).AttemptFailProb(timeunit.Hours(10)); got != 0 {
		t.Errorf("zero rate: f = %g", got)
	}
	// Huge exposure saturates toward 1 without exceeding it.
	if got := (FaultRate{PerHour: 100}).AttemptFailProb(timeunit.Hours(10)); got > 1 || got < 0.999 {
		t.Errorf("saturation: f = %g", got)
	}
}

func TestAttemptFailProbPanics(t *testing.T) {
	for _, f := range []func(){
		func() { FaultRate{PerHour: -1}.AttemptFailProb(1) },
		func() { FaultRate{PerHour: 1}.AttemptFailProb(-1) },
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

// Properties: f is a probability, monotone in both rate and exposure.
func TestAttemptFailProbProperties(t *testing.T) {
	check := func(rate16 uint16, c32 uint32) bool {
		rate := FaultRate{PerHour: float64(rate16) / 100}
		c := timeunit.Time(c32)
		f := rate.AttemptFailProb(c)
		if f < 0 || f > 1 {
			return false
		}
		if rate.AttemptFailProb(c+1000) < f {
			return false
		}
		bigger := FaultRate{PerHour: rate.PerHour + 0.5}
		return bigger.AttemptFailProb(c) >= f
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
