package safety

import (
	"fmt"
	"testing"

	"repro/internal/criticality"
	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/task"
	"repro/internal/timeunit"
)

// killingPFHLONaive evaluates eq. (5) point by point: every α ∈ π_i(t)
// pays one Adaptation.logR call, i.e. one Rounds division per HI task —
// O(r_LO × |τ_HI|) divisions overall.
func (c Config) killingPFHLONaive(loTasks []task.Task, ns []int, adapt *Adaptation) float64 {
	if len(ns) != len(loTasks) {
		panic(fmt.Sprintf("safety: %d profiles for %d LO tasks", len(ns), len(loTasks)))
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	t := c.Horizon()
	var sum prob.KahanSum
	for i, lo := range loTasks {
		r := c.Rounds(lo, ns[i], t)
		if r == 0 {
			continue
		}
		// 1 − R·(1−q) = −expm1(log R + log(1−q)): one transcendental call
		// per α, no cancellation even when both factors are within 1e-15
		// of 1. q = f^n is the round failure probability.
		log1mq := 0.0
		if f := lo.FailProb; f > 0 {
			log1mq = prob.Log1mPow(f, ns[i])
		}
		roundCost := c.effectiveRoundCost(lo.WCET, ns[i])
		// α = t (the ∪{t} member), then m = 1 .. r−1.
		sum.Add(prob.OneMinusExp(adapt.logR(t) + log1mq))
		for m := int64(1); m < r; m++ {
			alpha := t - roundCost - timeunit.Time(m)*lo.Period + lo.Deadline
			sum.Add(prob.OneMinusExp(adapt.logR(alpha) + log1mq))
		}
	}
	return sum.Value() / float64(c.OperationHours)
}

// BenchmarkSafetyKillingPFHNaive evaluates eq. (5) on the FMS workload
// (≈ 36 000 π-points per LO task over OS = 10 h) through the naive
// per-point kernel the boundary-merge kernel replaced; the ratio to the
// root package's BenchmarkSafetyKillingPFH is the kernel speedup.
func BenchmarkSafetyKillingPFHNaive(b *testing.B) {
	s := gen.FMSAt(gen.DefaultFMSKillSeed)
	cfg := Config{OperationHours: gen.FMSOperationHours, AssumeFullWCET: true}
	adapt, err := NewUniformAdaptation(cfg, s.ByClass(criticality.HI), 2)
	if err != nil {
		b.Fatal(err)
	}
	lo := s.ByClass(criticality.LO)
	ns := []int{2, 2, 2, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cfg.killingPFHLONaive(lo, ns, adapt) <= 0 {
			b.Fatal("bad bound")
		}
	}
}
